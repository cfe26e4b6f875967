"""Package version, kept separate so tooling can read it cheaply."""

__version__ = "3.0.0"
