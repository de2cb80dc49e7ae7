import os
import sys

from .cli import main


def run() -> None:
    """Run the CLI as a program; a reader that closes stdout early ends it with exit 1."""
    try:
        code = main()
        # flush here, so that a closed pipe raises inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at /dev/null so that
        # this flush cannot raise a second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
