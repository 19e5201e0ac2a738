"""Runs the ``bkcube`` command line as its console script does.

With PERFBENCH_SPANS naming a file, the command's layer spans are recorded
and written to that file when the command exits.
"""

import os

spans_path = os.environ.get("PERFBENCH_SPANS")
if spans_path:
    import tracer

    recorder = tracer.Tracer()
    recorder.install()
    try:
        import bkcube.cli

        bkcube.cli.main()
    finally:
        recorder.dump(spans_path)
else:
    from bkcube.cli import main

    main()
