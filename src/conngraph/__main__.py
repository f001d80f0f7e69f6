"""Allow running the CLI as `python -m conngraph`."""

from .cli import console_main

console_main()
