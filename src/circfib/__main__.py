"""``python -m circfib``: the ``circfib`` console command."""

from .cli import console_main

console_main()
