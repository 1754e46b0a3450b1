"""Wall-clock benchmark of the DITA reproduction (see ``run.py``)."""
