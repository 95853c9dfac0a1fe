"""Checks on the package source and its import graph."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ellipsum"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_runtime_assert(path):
    # `python -O` strips assert statements, so they cannot guard an invariant
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"


def test_cli_imports_numpy_only():
    # the package declares numpy as its only runtime dependency; the test
    # and benchmark tools must not leak into its import graph
    probe = "import sys, ellipsum.cli; print(sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def _names(tree):
    """Every identifier an AST mentions: names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def _modules_naming(name):
    return sorted(path.name for path in SOURCE.glob("*.py") if name in set(_names(ast.parse(path.read_text()))))


def test_only_linalg_uses_private_numpy_gufuncs():
    # numpy.linalg._umath_linalg is private numpy API; keeping it in one
    # module keeps one place to mend if numpy renames it
    assert _modules_naming("_umath_linalg") == ["linalg.py"]


def test_only_ellipsoid_takes_log_dets():
    # Ellipsoid.log_volume reads 1/2 log det from the stored factor; a
    # second producer, such as a sum over the spectrum, drifts from the
    # shape it stands for
    assert _modules_naming("_half_logdet") == ["ellipsoid.py"]


def test_cli_names_no_oracle_internals():
    # check hands each pair step to oracles.pair_step_checks, which takes
    # the spectrum once; the CLI neither takes it nor runs the checks alone
    for name in ("generalized_spectrum", "golden_section_beta", "_stationarity", "consistency_checks"):
        assert "cli.py" not in _modules_naming(name), name


def test_mvoe_builds_results_in_one_function():
    # every MvoeResult, of mvoe_pair, of a fold and of a K = 1 fold, comes
    # from one builder, so its fields cannot drift between them
    tree = ast.parse((SOURCE / "mvoe.py").read_text())
    builders = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "MvoeResult"
    ]
    assert builders == ["_result"]


def test_one_chain_of_pair_steps():
    # mvoe_pair, mvoe_sum and the reach tubes run one chain of pair steps;
    # a reach step whitens in the pre-image coordinates of its map and so
    # neither has its own pair kernel nor maps and factors the state
    assert _modules_naming("_pair_parts") == []
    assert _modules_naming("_chain") == ["mvoe.py", "reach.py"]
    assert "reach.py" not in _modules_naming("_image_parts")


def test_check_folds_as_sum_does():
    # check certifies the fold that sum writes, so it runs mvoe_sum and has
    # no pair loop of its own
    assert "cli.py" not in _modules_naming("mvoe_pair")
    assert "cli.py" in _modules_naming("mvoe_sum")


def test_no_single_step_wrappers():
    # affine_image maps and factors in its own body, and a reach step is the
    # tube over one stage: neither has a wrapper beside the chain
    import ellipsum

    assert _modules_naming("_image_parts") == []
    assert _modules_naming("_input_image") == []
    for name in ("step_forward", "step_backward"):
        assert not hasattr(ellipsum, name), name


def test_linalg_exports_only_what_the_package_calls():
    # the kernels are private and run inside their caller's errstate; a
    # public function that no other module names is a wrapper kept for tests
    tree = ast.parse((SOURCE / "linalg.py").read_text())
    public = [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    assert [name for name in public if not set(_modules_naming(name)) - {"linalg.py"}] == []


def test_check_does_not_import_numpy_random(tmp_path):
    # direction sampling runs on the standard library's random module, so
    # `check` pays no numpy.random import
    problem = {
        "version": "1",
        "dimension": 2,
        "ellipsoids": [
            {"center": [0.0, 0.0], "shape": [[1.0, 0.0], [0.0, 1.0]]},
            {"center": [1.0, 0.0], "shape": [[2.0, 0.5], [0.5, 1.0]]},
            {"center": [0.0, 1.0], "shape": [[3.0, 0.0], [0.0, 0.5]]},
        ],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    probe = (
        "import sys; from ellipsum.cli import main; code = main(['check', sys.argv[1]]); "
        "sys.stderr.write(repr((code, 'numpy.random' in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True, env=env, check=True)
    assert out.stderr == "(0, False)"


def test_only_main_maps_errors_to_exit_codes():
    # a command parses, solves, writes and returns 0 or 1; main alone turns
    # an error into its message and exit code
    tree = ast.parse((SOURCE / "cli.py").read_text())
    mapping = {"_fail", "EXIT_PARSE", "EXIT_NUMERIC", "EXIT_SINGULAR", "EXIT_UNSUPPORTED_DIM"}
    users = [
        getattr(statement, "name", type(statement).__name__)
        for statement in tree.body
        if mapping & {n.id for n in ast.walk(statement) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    ]
    assert users == ["main"]


def test_one_expression_for_q_of_beta():
    # check re-forms a fold's earlier steps with q_of_beta; it and the chain
    # evaluate one helper, so a re-formed shape is the fold's own bit for bit
    tree = ast.parse((SOURCE / "mvoe.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    callers = [function.name for function in functions if "_q_of_beta" in set(_names(function))]
    assert sorted(callers) == ["_chain", "q_of_beta"]


def test_only_mvoe_sum_drives_the_chain_in_mvoe():
    # mvoe_pair is the one-step fold: it checks its operands' dimensions and
    # calls mvoe_sum, so a pair and a fold share one errstate and one builder
    tree = ast.parse((SOURCE / "mvoe.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name != "_chain"]
    assert [function.name for function in functions if "_chain" in set(_names(function))] == ["mvoe_sum"]


def test_reach_runs_on_the_linalg_kernels():
    # reach's solves and singular-value probe call linalg's kernels, whose
    # LAPACK failure is a NaN output checked inside the tube's one errstate;
    # the np.linalg wrappers raise LinAlgError under an errstate of their own
    tree = ast.parse((SOURCE / "reach.py").read_text())
    numpy_linalg = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "linalg" and isinstance(node.value, ast.Name)
    ]
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and "numpy" in (node.module or "")]
    assert "LinAlgError" not in set(_names(tree))
    assert numpy_linalg == [] and imports == []


ROOT = SOURCE.parent.parent

#: public names that may lack a caller for now: q_of_alpha is the weight
#: family of ROADMAP direction 4, whose joint K-summand solve will call it
UNCALLED_EXEMPT = {"q_of_alpha"}


def _reads(tree):
    """(identifier, is an attribute, enclosing definitions) for every name
    the AST loads and every attribute it names; the enclosing definitions
    are the dotted qualnames of the defs and classes around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (f"{scope[-1]}.{node.name}" if scope else node.name,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, False, scope))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_every_public_name_has_a_caller():
    # the public surface is what the package, its scripts and the
    # acceptance criteria call: a name in ellipsum.__all__, or a public
    # method or property of an exported class (read as an attribute), that
    # is named only inside its own def or class body is a helper kept for
    # its unit tests. Names are matched as identifiers, so two methods of
    # one name count as each other's callers
    import inspect

    import ellipsum

    paths = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    reads = [(path, *read) for path in paths for read in _reads(ast.parse(path.read_text()))]

    def called(name, qualname, module, method):
        own = SOURCE / f"{module.rsplit('.', 1)[-1]}.py"
        return any(
            used == name and (attribute or not method) and not (path == own and qualname in scope)
            for path, used, attribute, scope in reads
        )

    targets = []
    for name in ellipsum.__all__:
        obj = getattr(ellipsum, name)
        targets.append((name, name, obj.__module__, False))
        if inspect.isclass(obj):
            targets += [
                (attr, f"{name}.{attr}", obj.__module__, True)
                for attr, value in vars(obj).items()
                if not attr.startswith("_") and (callable(getattr(obj, attr)) or isinstance(value, property))
            ]
    uncalled = sorted(target[1] for target in targets if not called(*target))
    assert uncalled == sorted(UNCALLED_EXEMPT)


def test_a_reach_stage_is_a_plain_value():
    # LtiStage holds F, G and its input set and caches nothing: the tube,
    # reach._propagate, checks eps once and keeps each stage's derived step
    # for its own length; the lift and the array freeze live in reach.py,
    # their one user
    from dataclasses import fields

    from ellipsum import LtiStage

    assert [f.name for f in fields(LtiStage)] == ["F", "G", "input_set"]
    tree = ast.parse((SOURCE / "reach.py").read_text())
    assert "field" not in set(_names(tree))
    assert _modules_naming("_derived") == []
    for name in ("_lift", "_freeze"):
        assert _modules_naming(name) == ["reach.py"], name
    # module functions and methods; a def nested in one belongs to it
    functions = {
        node.name: node
        for statement in tree.body
        for node in (statement.body if isinstance(statement, ast.ClassDef) else [statement])
        if isinstance(node, ast.FunctionDef)
    }
    assert [name for name, node in functions.items() if "_chain_step" in set(_names(node))] == ["_propagate"]
    message = "eps must be nonnegative and finite"
    assert [name for name, node in functions.items() if message in ast.unparse(node)] == ["_propagate"]


def test_reach_enters_one_errstate():
    # a tube's steps, F^{-1} of a backward stage included, run inside the
    # one np.errstate of reach._propagate
    tree = ast.parse((SOURCE / "reach.py").read_text())
    holders = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "errstate"
    ]
    assert holders == ["_propagate"]


#: every public function that takes raw shape matrices, by module
RAW_SHAPE_ENTRY_POINTS = {
    "mvoe.py": ["q_of_beta", "q_of_direction", "q_of_alpha"],
    "oracles.py": [
        "generalized_spectrum",
        "golden_section_beta",
        "pair_step_checks",
        "logdet_derivative",
        "logdet_derivative_fd",
    ],
}


def test_raw_shapes_are_checked_by_one_helper():
    # each entry point checks its shapes by mvoe._shapes, which applies the
    # check of linalg.symmetrize; the per-module forks of that rule are gone
    for module, names in RAW_SHAPE_ENTRY_POINTS.items():
        tree = ast.parse((SOURCE / module).read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            assert "_shapes" in set(_names(functions[name])), name
    assert _modules_naming("_check_symmetric") == ["linalg.py", "mvoe.py"]
    for name in ("_check_pair", "_check_sizes"):
        assert _modules_naming(name) == [], name


def test_one_checked_factorization():
    # linalg._cholesky factors every shape and raises its typed errors;
    # no wrapper beside it re-reads a failed factor, and the overflow of a
    # computed shape is reported by linalg._check_overflow alone
    for name in ("_factored", "_lapack_cholesky"):
        assert _modules_naming(name) == [], name
    message = "shape matrix has non-finite entries (overflow)"
    assert [path.name for path in sorted(SOURCE.glob("*.py")) if message in path.read_text()] == ["linalg.py"]


def test_one_finiteness_test_of_arrays():
    # linalg._finite is the package's one test that an array is finite:
    # np.isfinite is spelled nowhere else
    found = [
        (path.name, getattr(statement, "name", type(statement).__name__))
        for path in sorted(SOURCE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "isfinite" and getattr(node.value, "id", None) == "np"
    ]
    assert found == [("linalg.py", "_finite")]


def test_oracles_whiten_by_their_own_route():
    # the oracles' spectrum is not the solver's: _whitened_spectrum, the
    # chain's kernel, is named in mvoe.py alone, oracles.py imports no
    # spectrum route from mvoe, and every raw shape is factored by
    # linalg._cholesky, in mvoe._shapes, not by np.linalg.cholesky
    assert _modules_naming("_whitened_spectrum") == ["mvoe.py"]
    tree = ast.parse((SOURCE / "oracles.py").read_text())
    from_mvoe = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mvoe"
        for alias in node.names
    }
    assert from_mvoe & {"_whitened_spectrum", "generalized_spectrum", "_generalized_spectrum", "_chain"} == set()
    for path in sorted(SOURCE.glob("*.py")):
        assert "np.linalg.cholesky" not in path.read_text(), path.name


def test_one_positivity_rule_for_a_whitened_spectrum():
    # a whitened spectrum that rounds to <= 0 is reported by
    # linalg._sym_eigvals, which the solver's and the oracles' whitenings
    # both call
    message = "not resolvable in double precision"
    assert [path.name for path in sorted(SOURCE.glob("*.py")) if message in path.read_text()] == ["linalg.py"]
    assert _modules_naming("_sym_eigvals") == ["mvoe.py", "oracles.py"]
