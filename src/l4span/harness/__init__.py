"""Scenario files and bundled experiments (``scenario``), metric streams
(``metrics``), the acceptance criteria (``acceptance``) and the CLI (``cli``)."""
