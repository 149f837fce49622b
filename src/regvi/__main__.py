"""`python -m regvi ...` runs the command line of `regvi.cli`."""
from .cli import main

raise SystemExit(main())
