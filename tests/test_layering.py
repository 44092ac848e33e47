"""Import-layering contract.

Source-level scan (so even lazy/function-local imports are caught) of
the library layers that must stay below the planner and the
presentation layers.  It runs inside tier-1, so a violation fails the
fast local suite and CI alike.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RULES = {
    "repro/plan": ("repro.experiments", "repro.viz"),
    "repro/kernels": ("repro.plan",),
    "repro/obs": (
        "repro.core",
        "repro.plan",
        "repro.index",
        "repro.kernels",
        "repro.experiments",
        "repro.viz",
    ),
    # The prune layer sits beside the kernels: summaries/classifier may
    # read the stores and obs counters but must never reach up into the
    # compute, planning or presentation layers (kernels import prune,
    # never the reverse).
    "repro/prune": (
        "repro.core",
        "repro.plan",
        "repro.kernels",
        "repro.index",
        "repro.experiments",
        "repro.viz",
    ),
    # The serving layer is the top of the library: it composes the
    # engine, planner, store and obs but may not reach into the compute
    # layers directly (kernels/index are planner implementation
    # details) nor into the presentation layers.
    "repro/serve": (
        "repro.kernels",
        "repro.index",
        "repro.experiments",
        "repro.viz",
    ),
    # The preference model is foundation-level: every dominance-consuming
    # layer imports it, so it may depend on nothing above the shared
    # config/exception modules (see the positive pin below).
    "repro/prefs": (
        "repro.core",
        "repro.plan",
        "repro.kernels",
        "repro.index",
        "repro.skyline",
        "repro.geometry",
        "repro.prune",
        "repro.store",
        "repro.obs",
        "repro.serve",
        "repro.experiments",
        "repro.viz",
    ),
}

IMPORT_RE = re.compile(
    r"^\s*(?:from\s+([\w.]+)\s+import|import\s+([\w.]+))", re.MULTILINE
)


def violations_for(root: str, forbidden: tuple) -> list[str]:
    found = []
    for path in (SRC / root).rglob("*.py"):
        for match in IMPORT_RE.finditer(path.read_text()):
            module = match.group(1) or match.group(2)
            for banned in forbidden:
                if module == banned or module.startswith(banned + "."):
                    found.append(f"{path}: imports {module}")
    return found


def test_layer_rules_hold():
    problems = []
    for root, forbidden in RULES.items():
        assert (SRC / root).is_dir(), f"layer {root} disappeared"
        problems += violations_for(root, forbidden)
    assert not problems, "layering violations:\n" + "\n".join(problems)


def test_prune_layer_has_only_allowed_dependencies():
    """Positive pin: every repro.* import inside repro/prune must come
    from the explicitly allowed foundations."""
    allowed = ("repro.prune", "repro.store", "repro.obs", "repro.exceptions")
    offending = []
    for path in (SRC / "repro/prune").rglob("*.py"):
        for match in IMPORT_RE.finditer(path.read_text()):
            module = match.group(1) or match.group(2)
            if not module.startswith("repro"):
                continue
            if not any(
                module == a or module.startswith(a + ".") for a in allowed
            ):
                offending.append(f"{path}: imports {module}")
    assert not offending, "\n".join(offending)


def test_serve_layer_has_only_allowed_dependencies():
    """Positive pin for the serving layer: it may compose the facade
    layers (core, plan, store, obs) and the shared config/exception
    modules, nothing else."""
    allowed = (
        "repro.serve",
        "repro.core",
        "repro.plan",
        "repro.store",
        "repro.obs",
        "repro.config",
        "repro.exceptions",
        "repro.prefs",
    )
    offending = []
    for path in (SRC / "repro/serve").rglob("*.py"):
        for match in IMPORT_RE.finditer(path.read_text()):
            module = match.group(1) or match.group(2)
            if not module.startswith("repro"):
                continue
            if not any(
                module == a or module.startswith(a + ".") for a in allowed
            ):
                offending.append(f"{path}: imports {module}")
    assert not offending, "\n".join(offending)


def test_prefs_layer_has_only_allowed_dependencies():
    """Positive pin: the preference model sits at the foundation; inside
    repro/prefs only the shared config/exception modules may be
    imported."""
    allowed = ("repro.prefs", "repro.config", "repro.exceptions")
    offending = []
    for path in (SRC / "repro/prefs").rglob("*.py"):
        for match in IMPORT_RE.finditer(path.read_text()):
            module = match.group(1) or match.group(2)
            if not module.startswith("repro"):
                continue
            if not any(
                module == a or module.startswith(a + ".") for a in allowed
            ):
                offending.append(f"{path}: imports {module}")
    assert not offending, "\n".join(offending)


def test_nothing_below_serve_imports_it():
    """serve is a leaf: only the experiments CLI (presentation) may
    import ``repro.serve``; the library underneath must not know the
    serving layer exists."""
    offending = []
    for path in (SRC / "repro").rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(("repro/serve/", "repro/experiments/")):
            continue
        for match in IMPORT_RE.finditer(path.read_text()):
            module = match.group(1) or match.group(2)
            if module == "repro.serve" or module.startswith("repro.serve."):
                offending.append(f"{path}: imports {module}")
    assert not offending, "serve leaked downward:\n" + "\n".join(offending)
