"""The README's command-line section against the code it describes."""

import json
import re
from pathlib import Path

from ckls import parse_config
from ckls.engine import BOUNDARY_RULES
from ckls.verify import CHECKS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMAND_LINE = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
EULER_KERNEL = README.split("## One Euler kernel and its observers", 1)[1].split("\n## ", 1)[0]


def test_config_example_parses_and_round_trips():
    """The JSON config example is a valid config that uses every optional
    key, so a key the parser drops or renames shows here."""
    example = json.loads(re.search(r"```json\n(.*?)```", COMMAND_LINE, re.S).group(1))
    cfg = parse_config(example)
    assert cfg.to_dict() == example


def test_suite_list_is_the_check_list():
    """The README lists the single-check suites in run order."""
    listed = re.search(r"any single check:(.*?)\. `verify` exits", COMMAND_LINE, re.S).group(1)
    assert tuple(re.findall(r"`([a-z0-9-]+)`", listed)) == CHECKS


def test_boundary_rule_list_is_the_kernel_list():
    """The Euler kernel section gives each boundary rule a bullet of its
    own, in the order of engine.BOUNDARY_RULES."""
    listed = re.findall(r'^- `"([a-z-]+)"`', EULER_KERNEL, re.M)
    assert tuple(listed) == BOUNDARY_RULES
