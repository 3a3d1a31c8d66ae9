"""``python -m crossbifix``: run one command, then end the process.

Run as the process's own ``__main__``, this module ends the process with
``os._exit`` once the command returns, and so skips the interpreter's
teardown: freeing every module and object and the last garbage collections,
which the OS reclaims at exit anyway. Before that it does what shutdown does
first: it runs the ``atexit`` handlers and flushes stdout, then stderr. The
package starts no threads, and every file a command opens is closed before
``main`` returns. Run any other way, as ``runpy.run_module`` runs it inside a
process or ``python -m cProfile -m crossbifix`` runs it, it raises
``SystemExit`` as usual. Help and refusals raise ``SystemExit`` from inside
``main`` and exit as usual too.
"""

import atexit
import os
import sys

from .cli import main


def _exit(code: int) -> None:
    """End the process with ``code`` after the ``atexit`` handlers and the
    flushes of stdout and stderr. A stdout that cannot be flushed, as when
    its reader has closed the pipe, is an error: exit 2 with one
    ``error:`` line, which a command that returned 2 has printed already."""
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            print(f"error: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    code = main()
    if globals() is sys.modules["__main__"].__dict__:
        _exit(code)
    raise SystemExit(code)
