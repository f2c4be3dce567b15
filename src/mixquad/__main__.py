import gc
import sys

from .cli import main


def run():
    """`mixquad` and `python -m mixquad`: cli.main, then gc.freeze, then exit with its code.

    The frozen objects are skipped by the collections at interpreter shutdown;
    the exit is an ordinary one (not os._exit), so atexit handlers run and
    buffered output is flushed. cli.main does not freeze: tests call it in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
