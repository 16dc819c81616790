import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
import types
from pathlib import Path

import pytest

import permartingale
from permartingale.errors import DomainError, InvalidInputError


def test_all_exports_resolve_and_are_not_modules():
    assert len(permartingale.__all__) == len(set(permartingale.__all__))
    for name in permartingale.__all__:
        value = getattr(permartingale, name)
        assert not isinstance(value, types.ModuleType), name
    assert "verify" in permartingale.__all__
    assert "inequalities" not in permartingale.__all__
    assert set(permartingale.__all__) <= set(dir(permartingale))


def test_every_export_is_the_object_its_submodules_hold():
    # the lazy namespace hands out each submodule's own object, and the
    # engines re-export the choice enums of the leaf module
    modules = [
        importlib.import_module(f"permartingale.{info.name}")
        for info in pkgutil.iter_modules(permartingale.__path__)
        if info.name != "__main__"
    ]
    for name in permartingale.__all__:
        held = [vars(m)[name] for m in modules if name in vars(m)]
        assert held and all(v is getattr(permartingale, name) for v in held), name
    assert permartingale.inequalities.InequalityId is permartingale.InequalityId
    assert permartingale.construction.Basis is permartingale.Basis
    assert repr(permartingale.InequalityId.HARDY) == "<InequalityId.HARDY: 'hardy'>"
    assert repr(permartingale.VerifyMode.MONTE_CARLO) == "<VerifyMode.MONTE_CARLO: 'mc'>"


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_examples_print_what_they_say():
    # every python block runs in order in one namespace; a line
    # `print(...)  # text` must print a prefix of its comment
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            said = re.fullmatch(r"print\(.*\)\s+# (.*)", lines[stmt.end_lineno - 1])
            if said:
                printed = out.getvalue()
                assert printed.count("\n") == 1 and printed != "\n", printed
                assert said[1].startswith(printed[:-1]), (printed, said[1])
                checked += 1
    assert checked == 4


FOUR = permartingale.make_population([1, -1, 2, -2])

# (call, exception class, message fragment) for the argument checks of the
# library functions that no CLI path reaches
LIBRARY_REFUSALS = [
    (lambda p: p.matrix_vector(((1, 2),), (1,)),
     InvalidInputError, "matrix and vector shapes do not match"),
    (lambda p: p.quadratic_inverse_product(2, 0, 1, 1),
     DomainError, "quadratic basis needs n >= 3, got n=2"),
    (lambda p: p.weighted_transition(1, 1, 0),
     DomainError, "weighted basis needs n >= 2, got n=1"),
    (lambda p: p.weighted_inverse_product(1, [1], 1),
     DomainError, "weighted basis needs n >= 2, got n=1"),
    (lambda p: p.verify("bridge", bridge_m=2, weights=[1, 1, 1, 1]),
     InvalidInputError, "the bridge inequality takes no weights"),
    (lambda p: p.verify("quadratic"), InvalidInputError, "a population is required"),
    (lambda p: p.folding_constant("alternating", 1), DomainError, "need n >= 2, got 1"),
    (lambda p: p.folding_constant("garsia_unweighted", 9),
     InvalidInputError, "the garsia_unweighted constant needs m"),
    (lambda p: p.partial_sum_second_moment_oracle(FOUR, 5),
     DomainError, "need 1 <= m <= 4, got m=5"),
    (lambda p: p.bridge_moment_oracle(2, 0), InvalidInputError, "need power >= 1, got 0"),
    (lambda p: p.mtilde_coefficients(1), DomainError, "need n >= 2, got 1"),
    (lambda p: p.mtilde_terminal_oracle(p.make_population([1, -1, 0])),
     DomainError, "need n >= 4, got n=3"),
    (lambda p: p.isserlis_oracle(p.make_population([1, -1, 0]), "1111"),
     DomainError, "pattern 1111 touches 4 distinct draws and needs n >= 4, got n=3"),
    (lambda p: p.weighted_second_moment_oracle(FOUR, [1, 1, 1, 1], 4),
     DomainError, "need 1 <= k <= 3, got k=4"),
    (lambda p: p.population.resolve_cutoff(10.0),
     InvalidInputError, "cutoff must be an int, got 10.0"),
    (lambda p: p.mean_over_subsets(FOUR, 5, sum), InvalidInputError, "need 0 <= m <= 4, got 5"),
    (lambda p: p.as_fraction([1]), InvalidInputError, "expected a rational scalar, got [1]"),
    (lambda p: p.alternating_weights(0), InvalidInputError, "need n >= 1"),
]


@pytest.mark.parametrize("call, error, fragment", LIBRARY_REFUSALS)
def test_library_refusals_name_their_fault(call, error, fragment):
    with pytest.raises(error) as caught:
        call(permartingale)
    assert caught.type is error and fragment in str(caught.value)


def test_no_module_imports_a_name_it_never_reads():
    # __future__ imports aside
    unused = []
    for path in sorted(Path(permartingale.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text("utf-8"))))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in nodes:
            if isinstance(n, (ast.Import, ast.ImportFrom)) and \
                    getattr(n, "module", None) != "__future__":
                unused += [f"{path.name}:{n.lineno}: {name} is imported and never read"
                           for a in n.names
                           if (name := (a.asname or a.name).split(".")[0]) not in read]
    assert not unused, "\n".join(unused)


def test_measure_script_keeps_every_case():
    # builds the case table of tools/measure.py, drawing its seeded inputs,
    # and runs no case
    spec = importlib.util.spec_from_file_location("measure", ROOT / "tools" / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    labels = {name: [label for label, _ in build()] for name, build in measure.SECTIONS.items()}
    assert {name: len(cases) for name, cases in labels.items()} == {
        "Source line count": 1, "Package import cost": 6, "CLI process times": 4,
        "Monte Carlo working set": 1, "Monte Carlo times": 20, "Exact engine times": 25,
        "Martingale checker times": 24,
    }
    # "--help" names both an import-cost and a process-time case
    assert all(len(cases) == len(set(cases)) for cases in labels.values())
    assert labels["Monte Carlo times"][-1] == "mc hardy n=2000, 2000 samples"
    assert labels["Exact engine times"][-1] == "exact bridge m=6"
    assert labels["Martingale checker times"][-1] == \
        "Population total, square_sum and fourth_sum n=20000"
