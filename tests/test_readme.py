"""The README's examples run against the installed package, so a renamed or
deleted public name, flag or file fails here instead of leaving stale docs."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import dvcv_teleport
from dvcv_teleport.cli import ENV_OUT_DIR, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    text = README.read_text()
    block = re.search(rf"```{language}\n(.*?)```", text[text.index(f"\n## {section}\n"):], re.S)
    assert block is not None, f"README's {section} section has no {language} block"
    return block.group(1)


def _lookup(obj, dotted: str):
    """The attribute ``dotted`` of ``obj``, or None."""
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_readme_library_block_runs():
    namespace = {}
    exec(compile(_block("Library", "python"), f"{README}:Library", "exec"), namespace)
    assert "dt" in namespace


def test_readme_library_prose_names_real_names():
    # the prose outside the block does not run, so the name of each call
    # form `name(...)` and each dotted name `module.name` is looked up instead
    text = README.read_text()
    start = text.index("\n## Library\n")
    prose = re.sub(r"```.*?```", "", text[start:text.index("\n## ", start + 1)], flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        call = re.match(r"[A-Za-z_][\w.]*(?=\()", span)
        if call:
            names.add(call.group())
        elif re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span):
            names.add(span)
    assert len(names) > 5
    roots = [dvcv_teleport] + [importlib.import_module(f"dvcv_teleport.{info.name}")
                               for info in pkgutil.iter_modules(dvcv_teleport.__path__)]
    assert [name for name in sorted(names)
            if all(_lookup(root, name) is None for root in roots)] == []


def test_readme_command_line_block_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUT_DIR, raising=False)
    commands = [shlex.split(line) for line in
                _block("Command line", "sh").replace("\\\n", " ").splitlines()
                if line.startswith("dvcv-teleport ")]
    assert len(commands) == 9
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            # a figure's --out names a directory, a sweep's the file
            assert (out / f"{argv[2]}.csv" if argv[1] == "figure" else out).is_file(), argv
