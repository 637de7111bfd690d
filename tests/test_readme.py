"""The README's library quickstart runs as written and prints what its
comments say."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_matches_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        count = re.fullmatch(r"(\d+) classes", comment)
        if count:
            # "fam = ...  # 5 classes": the family assigned on this line.
            name = code.split("=")[0].strip()
            assert len(namespace[name]) == int(count.group(1))
            checked.append(line)
            continue
        try:
            literal = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == literal, line
        checked.append(line)
    assert len(checked) == 2
