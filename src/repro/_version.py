"""Package version, kept separate so tooling can read it cheaply."""

__version__ = "2.0.0"
