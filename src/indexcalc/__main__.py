"""``python -m indexcalc``: the command line of the installed ``indexcalc`` script."""

from .cli import main

if __name__ == "__main__":
    main()
