import pathlib
import re

import weinstein

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    # README's Layout block lists the modules of src/weinstein/, no more
    # and no fewer
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py)\b", block, re.M)
    package = pathlib.Path(weinstein.__file__).parent
    assert sorted(listed) == sorted(p.name for p in package.glob("*.py"))


def test_public_names_resolve_once():
    names = weinstein.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(weinstein, name)]
    assert not missing
