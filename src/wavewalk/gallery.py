"""Bundled filter gallery.

The filters ship as JSON data files so that tests, scripts, and the
command line all consume exactly the same inputs.
"""

from __future__ import annotations

from importlib import resources

from .filters import FilterSpec, load_filter

GALLERY_NAMES = ("haar", "stretched_haar", "d4", "shannon", "highpass_haar")


def gallery_path(name: str):
    """Filesystem path of a bundled filter file."""
    if name not in GALLERY_NAMES:
        raise KeyError(f"unknown gallery filter {name!r}; have {GALLERY_NAMES}")
    return resources.files(__package__) / "gallery" / f"{name}.json"


def load_gallery(name: str) -> FilterSpec:
    """Load one bundled filter by name, as load_filter reads any filter file."""
    return load_filter(gallery_path(name))
