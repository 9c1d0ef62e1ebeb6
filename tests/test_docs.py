import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def module_level_caps():
    """(module, name) of every module-level ``*_CAP`` assignment in the library."""
    for path in sorted((ROOT / "src" / "tdlcinv").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                        yield path.stem, target.id


def test_readme_names_every_cap_constant():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    caps = list(module_level_caps())
    assert caps, "no *_CAP constant found"
    missing = [f"{module}.{name}" for module, name in caps if f"`{name}`" not in readme]
    assert not missing, f"README.md does not name {missing}"


def test_readme_caps_entries_name_the_defining_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    wrong = [
        f"{module}.{name}"
        for module, name in module_level_caps()
        if not re.search(rf"^\* `{name}` = [0-9,]+ \(`tdlcinv\.{module}`\)", readme, re.MULTILINE)
    ]
    assert not wrong, f"README.md's Caps entries name the wrong module for {wrong}"


def test_readme_loaders_resolve_in_their_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = sorted(set(re.findall(r"`(?:tdlcinv\.)?(\w+)\.(load_\w+)", readme)))
    assert cited, "README.md cites no module.load_* loader"
    stale = [
        f"{module}.{name}"
        for module, name in cited
        if not callable(getattr(importlib.import_module(f"tdlcinv.{module}"), name, None))
    ]
    assert not stale, f"README.md cites loaders that do not exist: {stale}"


def test_readme_names_every_preset_family_with_its_rank_range():
    from tdlcinv.coxeter import PRESET_RANKS

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    expected = {
        f"`{family}{ranks[0]}`" if len(ranks) == 1 else f"`{family}{ranks[0]}..{family}{ranks[-1]}`"
        for family, ranks in PRESET_RANKS.items()
    }
    missing = sorted(entry for entry in expected if entry not in readme)
    assert not missing, f"README.md does not name the preset ranges {missing}"
    stale = sorted(set(re.findall(r"`[A-Z]\d+\.\.[A-Z]\d+`", readme)) - expected)
    assert not stale, f"README.md names preset ranges {stale} that the generator does not accept"
