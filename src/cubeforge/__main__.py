import sys

from . import cli

if __name__ == "__main__":  # importing the module runs nothing
    sys.exit(cli.main())
