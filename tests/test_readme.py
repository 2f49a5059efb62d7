"""The README's library example runs against the package's public names,
the internal names it lists import from the modules it names, and the
schemas, config fields and variants it lists are the code's."""

import dataclasses
import importlib
import re
from pathlib import Path

import dcfw
from dcfw.bench import RESULT_FIELDS, TRACE_FIELDS
from dcfw.dca import VARIANTS, DcaConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_usage_block():
    section = README.read_text().split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_block_runs(capsys):
    block = _library_usage_block()
    imported = re.search(r"^from dcfw import (.+)$", block, re.M).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(dcfw.__all__)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_every_exported_name_resolves():
    assert len(set(dcfw.__all__)) == len(dcfw.__all__)
    namespace = {}
    exec("from dcfw import *", namespace)  # raises for a name that is missing
    assert set(dcfw.__all__) <= namespace.keys()


def test_internal_pieces_import_from_the_modules_named():
    marker = "Internal pieces stay importable from their modules:"
    sentence = README.read_text().split(marker, 1)[1].split("\n\n", 1)[0]
    groups = " ".join(sentence.split()).rstrip(".").split(";")
    assert len(groups) >= 2
    for group in groups:
        names, module = group.rsplit(" from ", 1)
        module = importlib.import_module(module.strip().strip("`"))
        found = re.findall(r"`(\w+)`", names)
        assert found, group
        for name in found:
            assert hasattr(module, name), f"{module.__name__} has no {name}"


def _listed(label):
    """The comma list that follows label in the README, up to its period."""
    text = " ".join(README.read_text().split())
    return re.search(re.escape(label) + r" ([^.]*)\.", text).group(1).split(", ")


def test_result_and_trace_columns_are_the_code_s():
    assert _listed("`results.csv` columns:") == RESULT_FIELDS
    assert _listed("Trace columns:") == TRACE_FIELDS


def test_config_fields_are_the_code_s():
    names = [f.name for f in dataclasses.fields(DcaConfig)]
    assert _listed("`DcaConfig` fields:") == names


def test_variants_table_is_the_code_s():
    lines = [" ".join(line.split()) for line in README.read_text().splitlines()]
    start = lines.index("| name | subsolver | stop | warm start | boosted |")
    yes = {"yes": True, "no": False}
    table = {}
    for line in lines[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        name, subsolver, stop, warm, boosted = line.strip("| ").split(" | ")
        table[name] = dict(
            subsolver=subsolver, stop_mode=stop,
            warm_start=yes[warm], boosted=yes[boosted],
        )
    assert table == VARIANTS
