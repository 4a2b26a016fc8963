"""Locate and import the program under test from the checkout's ``src``.

The benchmark must measure the source tree it sits in, never a copy of
``beatformer`` installed elsewhere, so the import is checked to resolve
inside ``<ROOT>/src``.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("data", "model", "tensor", "train", "metrics", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/beatformer``."""


def import_program():
    """Import ``beatformer`` and its layer modules from ``<ROOT>/src``."""
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(src, "beatformer", "cli.py")):
        raise ProgramMissing(f"no program source at {src}/beatformer")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("beatformer")
    origin = os.path.realpath(package.__file__)
    if not origin.startswith(src + os.sep):
        raise ProgramMissing(f"beatformer resolved to {origin}, outside {src}")
    for layer in LAYERS:
        importlib.import_module(f"beatformer.{layer}")
    return package
