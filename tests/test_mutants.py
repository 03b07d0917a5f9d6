"""The mutation audit's site enumeration (`tools/mutants.py`), on a fixed
source. No mutant is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = ("if not a < 2 and b in c:\n"
          "    d = e or f is not None\n"
          "g = 10 + True\n")


def test_sites_are_numbered_in_visiting_order():
    assert mutants.sites(SOURCE) == [
        (1, 4, "and -> or"), (1, 4, "not dropped"), (1, 8, "< -> <="), (1, 12, "2 -> 3"),
        (1, 18, "in -> not in"), (2, 9, "or -> and"), (2, 14, "is not -> is"),
        (3, 5, "10 -> 11")]


def test_each_mutant_changes_its_site_alone():
    assert mutants.mutate(SOURCE, -1) == SOURCE
    assert mutants.mutate(SOURCE, 1) == ("if a < 2 and b in c:\n"
                                         "    d = e or f is not None\n"
                                         "g = 10 + True\n")
    assert mutants.mutate(SOURCE, 6) == ("if not a < 2 and b in c:\n"
                                         "    d = e or f is None\n"
                                         "g = 10 + True\n")
    texts = {mutants.mutate(SOURCE, i) for i in range(len(mutants.sites(SOURCE)))}
    assert len(texts) == 8 and SOURCE not in texts
