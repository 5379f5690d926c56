"""README names only code that exists: every snake_case or CamelCase word
of an inline code span in README.md occurs as a word in `src/` or `tests/`,
file names included, or stands in `NOT_CODE` with its reason. Its range
table states each config key's interval as `harness` declares it."""
import re
from pathlib import Path

from banditlab import harness

ROOT = Path(__file__).resolve().parents[1]

# names README quotes that are not this package's code, each with its reason
NOT_CODE = {
    "ImportError": "Python's built-in exception, which a missing numpy raises",
    "show_runtime": "numpy's `np.show_runtime()`, which lists the CPU features",
    "l_1": "the contextual csv format's loss columns, l_1 to l_K",
}

_NAME = re.compile(r"\b(?:_*[a-z][a-z0-9]*(?:_[a-z0-9]+)+"  # snake_case
                   r"|_?[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)\b")  # CamelCase


def code_names(markdown: str) -> set:
    """The snake_case and CamelCase words of the inline code spans of
    `markdown`, fenced blocks left out."""
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S)
    return {name for span in re.findall(r"`([^`\n]+)`", prose) for name in _NAME.findall(span)}


def unresolved(names: set, corpus: str) -> list:
    """The names that occur nowhere in `corpus` as a word."""
    return sorted(names - set(re.findall(r"\w+", corpus)))


def test_readme_names_only_code_that_exists():
    # this file quotes the names it tests for, so only its name counts
    here = Path(__file__).resolve()
    corpus = "\n".join(f"{path.relative_to(ROOT)}\n{'' if path == here else path.read_text()}"
                       for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py")))
    names = code_names((ROOT / "README.md").read_text())
    missed = unresolved(names, corpus)
    assert sorted(set(missed) - set(NOT_CODE)) == []
    # an allowlisted name that README no longer quotes, or that code now defines, comes off
    assert sorted(set(NOT_CODE) - set(missed)) == []


def test_a_deleted_name_fails_the_check():
    text = "The one-row `adversarial.exp3_row_probs(cum, eta)` and `ThetaExp4`.\n" \
           "```python\nfenced_only = 1\n```\n"
    assert code_names(text) == {"exp3_row_probs", "ThetaExp4"}
    assert unresolved(code_names(text), "class ThetaExp4: ...") == ["exp3_row_probs"]


def test_the_range_table_lists_each_keys_interval():
    # README's `section | key: range` table states the `within` of every Key
    # of the experiment, each policy and each environment kind, and no more
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| section | key: range |"):]
    listed = set()
    for row in table[:table.index("\n\n")].splitlines()[2:]:
        _, names, ranges, _ = row.split("|")
        listed |= {(name, key, within) for name in re.findall(r"[\w-]+", names)
                   for key, within in re.findall(r"`(\w+)` ([\[(][^\])]*[\])])", ranges)}
    sections = {"experiment": harness._EXPERIMENT_KEYS,
                **{name: entry.keys for name, entry in harness._POLICIES.items()},
                **{name: entry.keys for name, entry in harness._ENV_KINDS.items()}}
    declared = {(name, key, spec.within) for name, keys in sections.items()
                for key, spec in keys.items() if spec.within is not None}
    assert listed == declared
