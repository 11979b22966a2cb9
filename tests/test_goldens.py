"""The CLI's whole outputs against the goldens under tests/golden: exit
code, stderr and stdout of each command that `make_goldens.py` lists, byte
for byte, with only the elapsed_ms values stripped."""

import pytest

from make_goldens import GOLDEN, commands, run

COMMANDS = commands()
# four cores and no pool: a golden sweep of more than one run of BATCH fails on any host
pytestmark = pytest.mark.usefixtures("no_pool")


@pytest.mark.parametrize("name, argv, stdin, env", COMMANDS,
                         ids=[name.replace("/", ".") for name, *_ in COMMANDS])
def test_output_is_the_golden(name, argv, stdin, env):
    assert run(argv, stdin, env) == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


def test_every_golden_has_its_command():
    goldens = {path.relative_to(GOLDEN).with_suffix("").as_posix()
               for path in GOLDEN.rglob("*.txt")}
    assert goldens == {name for name, *_ in COMMANDS}
