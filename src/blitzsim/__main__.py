"""`python -m blitzsim`: the same command line as the blitzsim script."""

from .cli import main

raise SystemExit(main())
