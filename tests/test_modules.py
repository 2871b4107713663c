"""Module boundaries: no package module reaches into another's private helpers
or into numpy's private modules, no module keeps an unbounded functools
cache and the package's memos are a pinned inventory, the scaling loop's
kernels leave validation to the public entry points, singularity is decided
by one check on the start and no loop step answers NOT_IN_POLYTOPE, each
overflow is decided where its value is computed, no module calls a dense
eigendecomposition or determinant, scaling.py solves eigenvalues only in its
start check and its lazy trace distances, scaling.py makes no transpose call
as tensors.py owns the flattening's axis order, tensors.contract makes none
as its images stay row-major, the contraction kernels and the loop's state
force no complex dtype as tensors._real_if_real holds the one dtype rule,
each halt check makes the one resync call the benchmark's tracer counts, no
public function stays in the package that only the tests call, no
private top-level function or class stays that no package module calls,
and only cli.py opens or parses a file."""
import ast
from pathlib import Path

import tenscale

PACKAGE = Path(tenscale.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``from``-imports take from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("tenscale")):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    assert private_imports("from .scaling import _Plan, capacity\n"
                           "from tenscale.io import _require\n"
                           "from . import _hidden\n"
                           "from numpy import _private\n") \
        == ["_Plan", "_require", "_hidden"]


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    reaches = {path.name: private_imports(path.read_text()) for path in modules}
    assert {name: found for name, found in reaches.items() if found} == {}


def numpy_private_imports(source: str) -> list[str]:
    """Imports of a numpy module with an underscore-prefixed component, or
    of an underscore-prefixed name from numpy.  The package relies on public
    numpy only, since private modules and names move between releases."""
    def private(dotted: str) -> bool:
        parts = dotted.split(".")
        return parts[0] == "numpy" and any(p.startswith("_") for p in parts)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if private(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "numpy":
            found += [f"{node.module}.{a.name}" for a in node.names
                      if private(f"{node.module}.{a.name}")]
    return found


def test_guard_sees_numpy_private_imports():
    assert numpy_private_imports(
        "import numpy as np\n"
        "import numpy.linalg\n"
        "import numpy._core.einsumfunc\n"
        "from numpy import _private, einsum\n"
        "from numpy._core.einsumfunc import einsum_path\n"
        "from numpy.linalg import _umath_linalg as ul\n"
        "from ._numpy import x\n"
        "from numpyish import _y\n") \
        == ["numpy._core.einsumfunc", "numpy._private",
            "numpy._core.einsumfunc.einsum_path",
            "numpy.linalg._umath_linalg"]


def test_no_module_imports_numpy_private_code():
    found = {path.name: numpy_private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def inverse_uses(source: str) -> list[int]:
    """Lines that name a general inverse ``inv``: np.linalg.inv, linalg.inv
    or an import of inv, by plain or attribute name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "inv"
                  or isinstance(node, ast.Name) and node.id == "inv"
                  or isinstance(node, ast.alias) and node.name == "inv")


def test_guard_sees_inverse_uses():
    assert inverse_uses("import numpy as np\n"
                        "a = np.linalg.inv(b)\n"
                        "from numpy.linalg import inv, cholesky\n"
                        "c = inv(d) @ np.linalg.pinv(e)\n"
                        "f = scipy.linalg.inv\n"
                        "g = inverse(h)\n") == [2, 3, 4, 5]


def test_scaling_takes_no_general_inverse():
    # the step matrix's inverse factor comes from its one block Cholesky
    # call; a general inverse would add a LAPACK call to every step
    assert inverse_uses((PACKAGE / "scaling.py").read_text()) == []


def functools_resolver(tree: ast.AST):
    """A function giving the functools name that a Name or Attribute node of
    the module refers to through its imports, else None."""
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            local.update({a.asname or a.name: "functools"
                          for a in node.names if a.name == "functools"})

    def functools_name(node):
        if isinstance(node, ast.Name):
            return local.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and local.get(node.value.id) == "functools":
            return node.attr
        return None

    return functools_name


def unbounded_caches(source: str) -> list[int]:
    """Lines that build a functools cache without a finite maxsize:
    ``cache`` itself, or ``lru_cache`` called with maxsize None."""
    tree = ast.parse(source)
    functools_name = functools_resolver(tree)
    found = []
    for node in ast.walk(tree):
        if functools_name(node) == "cache":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and functools_name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords
                                     if kw.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None
                   for v in sizes):
                found.append(node.lineno)
    return sorted(found)


def test_guard_sees_unbounded_caches():
    assert unbounded_caches("import functools\n"
                            "import functools as ft\n"
                            "from functools import cache, lru_cache as lru\n"
                            "@functools.lru_cache(maxsize=None)\n"
                            "def a(): pass\n"
                            "@lru(None)\n"
                            "def b(): pass\n"
                            "@cache\n"
                            "def c(): pass\n"
                            "d = ft.cache(len)\n") == [4, 6, 8, 10]
    assert unbounded_caches("import functools\n"
                            "from functools import lru_cache\n"
                            "@functools.lru_cache(maxsize=256)\n"
                            "def a(): pass\n"
                            "@lru_cache\n"
                            "def b(): pass\n"
                            "@lru_cache()\n"
                            "def c(): pass\n"
                            "cache = {}\n"
                            "e = lru_cache(len)\n") == []


def memo_names(source: str) -> set[str]:
    """Names of the functions that a functools cache decorates."""
    tree = ast.parse(source)
    functools_name = functools_resolver(tree)
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(functools_name(getattr(dec, "func", dec)) in ("cache", "lru_cache")
                    for dec in node.decorator_list)}


def test_guard_sees_memo_names():
    assert memo_names("import functools as ft\n"
                      "from functools import lru_cache, cached_property\n"
                      "@ft.lru_cache(maxsize=8)\n"
                      "def a(): pass\n"
                      "@lru_cache\n"
                      "def b(): pass\n"
                      "class C:\n"
                      "    @ft.cache\n"
                      "    def c(self): pass\n"
                      "    @cached_property\n"
                      "    def d(self): pass\n"
                      "@staticmethod\n"
                      "def e(): pass\n") == {"a", "b", "c"}


def test_no_module_keeps_an_unbounded_cache():
    found = {path.name: unbounded_caches(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the memo inventory: adding a memo takes a deliberate edit here
    memos = set().union(*(memo_names(path.read_text()) for path in PACKAGE.glob("*.py")))
    assert memos == {"_loop_constants", "_det_terms", "_memoized_plan", "_placement"}


# the scaling loop's private kernels and the checked public entry points
# they must not call: validation belongs at the API boundary
LOOP_KERNELS = {"_core_loop", "_step_matrix", "_Iterate"}
CHECKED_ENTRIES = {"check_hermitian", "marginal", "spectrum", "trace_distance"}


def kernel_entry_calls(source: str) -> list[tuple[str, str]]:
    """(kernel, callee) for each call from a loop kernel, or from a function
    nested in one or a method of _Iterate, to a checked entry point by plain or
    attribute name."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name not in LOOP_KERNELS:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in CHECKED_ENTRIES:
                found.append((node.name, name))
    return found


def test_guard_sees_kernel_entry_calls():
    assert kernel_entry_calls(
        "def _step_matrix(rho):\n"
        "    return spectrum(rho[:1, :1])\n"
        "class _Iterate:\n"
        "    def step(self, rho):\n"
        "        return ts.trace_distance(rho) + marginal(self.y, 1)\n"
        "def _core_loop(x):\n"
        "    def verified_halt():\n"
        "        return check_hermitian(x)\n"
        "    return _step_matrix(x)\n"
        "def measure(rho):\n"
        "    return _step_matrix(check_hermitian(rho))\n") \
        == [("_step_matrix", "spectrum"), ("_Iterate", "trace_distance"),
            ("_Iterate", "marginal"), ("_core_loop", "check_hermitian")]


def test_loop_kernels_call_no_checked_entry_point():
    source = (PACKAGE / "scaling.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert LOOP_KERNELS <= defined
    assert kernel_entry_calls(source) == []


# the one singularity rule, by the only top-level definitions of scaling.py
# that may use each name: the exact check in the start check, the start
# check in the two loops' starts; the loop's steps recheck nothing (see
# _check_start)
GATE_USERS = {"_assert_nonsingular": {"_check_start"},
              "_check_start": {"_core_loop", "scaling_step"}}


def gate_bypasses(source: str) -> list[tuple[str, str]]:
    """(owner, name) for each use of a GATE_USERS name, by plain or attribute
    name, outside its allowed top-level definitions; the owner is the
    enclosing top-level function or class, or "<module>"."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
            else "<module>"
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in GATE_USERS and isinstance(node.ctx, ast.Load) \
                    and owner not in GATE_USERS[name]:
                found.append((owner, name))
    return found


def test_guard_sees_gate_bypasses():
    assert gate_bypasses(
        "def _check_start(rhos):\n"
        "    for rho in rhos:\n"
        "        _assert_nonsingular(rho)\n"
        "def upper_cholesky(rho):\n"
        "    _assert_nonsingular(rho)\n"
        "def _step_matrix(rho):\n"
        "    _assert_nonsingular(rho[:1, :1])\n"
        "class _Iterate:\n"
        "    def rule(self):\n"
        "        return scaling._assert_nonsingular(self.rhos[0])\n"
        "    def step(self):\n"
        "        _check_start(self.rhos)\n"
        "def _core_loop(it):\n"
        "    _check_start(it.rhos)\n"
        "    def step():\n"
        "        return _assert_nonsingular(it.rhos[1])\n"
        "check = _assert_nonsingular\n") \
        == [("upper_cholesky", "_assert_nonsingular"),
            ("_step_matrix", "_assert_nonsingular"),
            ("_Iterate", "_assert_nonsingular"), ("_Iterate", "_check_start"),
            ("_core_loop", "_assert_nonsingular"),
            ("<module>", "_assert_nonsingular")]


def test_singularity_is_decided_by_the_one_gate():
    # the start check is the loop's only singularity test: the per-step
    # gate, its Weyl margin and the iterate's inputs to that bound are gone
    for path in sorted(PACKAGE.glob("*.py")):
        names = {getattr(node, "name", None) or getattr(node, "id", None)
                 or getattr(node, "attr", None)
                 for node in ast.walk(ast.parse(path.read_text()))}
        assert not {"_gate", "_GATE_MARGIN", "lows", "floors"} & names, path.name
    source = (PACKAGE / "scaling.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert {"_check_start", "_assert_nonsingular"} <= defined
    assert gate_bypasses(source) == []


# names a scaling loop may not load once it steps: a negative answer, the
# obstruction report that gives one, and the error a singular marginal raises
LOOP_NEGATIVES = {"NOT_IN_POLYTOPE", "obstruction", "SingularMarginalError"}


def loop_negatives(source: str) -> list[str]:
    """LOOP_NEGATIVES names loaded inside a while or for loop of _core_loop,
    in order of appearance: NOT_IN_POLYTOPE is a step-0 answer only."""
    loop = next((n for n in ast.parse(source).body
                 if isinstance(n, ast.FunctionDef) and n.name == "_core_loop"),
                None)
    inside = {n for node in (ast.walk(loop) if loop else [])
              if isinstance(node, (ast.While, ast.For)) for n in ast.walk(node)
              if isinstance(n, ast.Name) and n.id in LOOP_NEGATIVES}
    return [n.id for n in sorted(inside, key=lambda n: (n.lineno, n.col_offset))]


def test_guard_sees_mid_loop_negatives():
    assert loop_negatives(
        "def _core_loop(it):\n"
        "    if it.singular:\n"
        "        return obstruction(NOT_IN_POLYTOPE)\n"
        "    while True:\n"
        "        try:\n"
        "            it.rule()\n"
        "        except SingularMarginalError:\n"
        "            return report(NOT_IN_POLYTOPE)\n"
        "        for j in it.factors:\n"
        "            obstruction()\n") \
        == ["SingularMarginalError", "NOT_IN_POLYTOPE", "obstruction"]


def test_core_loop_answers_not_in_polytope_only_at_step_0():
    assert loop_negatives((PACKAGE / "scaling.py").read_text()) == []


def singular_raises(source: str) -> list[str]:
    """The owner of each raise or construction of SingularMarginalError, by
    plain or attribute name, outside _assert_nonsingular; the owner is the
    enclosing top-level function or class, or "<module>"."""
    def names_error(node) -> bool:
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        return name == "SingularMarginalError"

    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
            else "<module>"
        if owner == "_assert_nonsingular":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and names_error(node.exc) \
                    or isinstance(node, ast.Call) and names_error(node.func):
                found.append(owner)
    return found


def test_guard_sees_singular_raises():
    assert singular_raises(
        "def _assert_nonsingular(rho):\n"
        "    raise SingularMarginalError('low')\n"
        "def _step_matrix(rho):\n"
        "    try:\n"
        "        return cholesky(rho)\n"
        "    except LinAlgError as exc:\n"
        "        raise SingularMarginalError(str(exc)) from exc\n"
        "class _Iterate:\n"
        "    def rule(self):\n"
        "        raise tensors.SingularMarginalError\n"
        "def _core_loop(it):\n"
        "    try:\n"
        "        it.rule()\n"
        "    except SingularMarginalError:\n"
        "        return None\n"
        "FAILURE = SingularMarginalError('at import')\n") \
        == ["_step_matrix", "_Iterate", "<module>"]


def test_only_the_exact_check_raises_singular():
    for path in sorted(PACKAGE.glob("*.py")):
        assert singular_raises(path.read_text()) == [], path.name


# the one overflow rule: the function that computes a value decides whether
# it left the float range, so only these owners may silence NumPy's
# warnings (np.errstate) or turn the given-data error NonFiniteEntriesError
# into a NumericBreakdownError
OVERFLOW_OWNERS = {
    "errstate": {"tensors.Tensor.norm", "tensors.apply_group",
                 "tensors.compose_group", "scaling.mps_tensor",
                 "scaling._core_loop", "cli.main"},
    "NonFiniteEntriesError": {"tensors.apply_group", "scaling.mps_tensor"},
}


def overflow_rule_breaches(module: str, source: str) -> list[tuple[str, str]]:
    """(owner, name) for each use of errstate, by plain or attribute name or
    as an imported name, and each except clause naming
    NonFiniteEntriesError, outside the OVERFLOW_OWNERS allowed for it.  The
    owner is module.function, module.Class.method, or module.Class or
    module.<module> for a statement outside any function."""
    def owned(body, prefix, outside):
        for node in body:
            if isinstance(node, ast.ClassDef):
                name = f"{prefix}{node.name}"
                yield from owned(node.body, f"{name}.", name)
            elif isinstance(node, ast.FunctionDef):
                yield f"{prefix}{node.name}", node
            else:
                yield outside, node

    def names(node) -> set[str]:
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    found = []
    for owner, top in owned(ast.parse(source).body, f"{module}.",
                            f"{module}.<module>"):
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and "NonFiniteEntriesError" in names(node.type):
                found.append((owner, "NonFiniteEntriesError"))
            elif isinstance(node, (ast.Name, ast.Attribute)) \
                    and "errstate" in (getattr(node, "id", None),
                                       getattr(node, "attr", None)) \
                    or isinstance(node, ast.alias) and node.name == "errstate":
                found.append((owner, "errstate"))
    return sorted((owner, name) for owner, name in found
                  if owner not in OVERFLOW_OWNERS[name])


def test_guard_sees_overflow_rule_breaches():
    assert overflow_rule_breaches(
        "tensors",
        "import numpy as np\n"
        "from numpy import errstate\n"
        "class Tensor:\n"
        "    @np.errstate(over='ignore')\n"
        "    def norm(self):\n"
        "        pass\n"
        "    def check(self):\n"
        "        with errstate(all='ignore'):\n"
        "            pass\n"
        "def apply_group(g, x):\n"
        "    try:\n"
        "        return Tensor(x)\n"
        "    except NonFiniteEntriesError as exc:\n"
        "        raise NumericBreakdownError() from exc\n"
        "def run(x):\n"
        "    def draw():\n"
        "        try:\n"
        "            with np.errstate(over='ignore'):\n"
        "                return x()\n"
        "        except (ValueError, tensors.NonFiniteEntriesError):\n"
        "            raise\n"
        "    return draw()\n") \
        == [("tensors.<module>", "errstate"), ("tensors.Tensor.check", "errstate"),
            ("tensors.run", "NonFiniteEntriesError"), ("tensors.run", "errstate")]


def test_overflow_is_decided_where_each_value_is_computed():
    found = {path.stem: overflow_rule_breaches(path.stem, path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}


# numpy's general contraction helpers; every package contraction goes
# through tensors.contract, which computes the same bits with fewer calls
CONTRACTION_HELPERS = {"tensordot", "moveaxis"}


def named_calls(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each call to a function in names, by attribute
    (np.tensordot, x.transpose) or by a bare imported name (eigh)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            func.id if isinstance(func, ast.Name) else None
        if name in names:
            found.append((node.lineno, name))
    return sorted(found)


def test_guard_sees_contraction_helper_calls():
    assert named_calls(
        "import numpy as np\n"
        "from numpy import tensordot\n"
        "y = np.moveaxis(np.tensordot(m, x, axes=([1], [2])), 0, 2)\n"
        "z = tensordot(m, x, 1)\n"
        "w = contract(m, x, 2)\n"
        "v = np.dot(m, x.moveaxis)\n", CONTRACTION_HELPERS) \
        == [(3, "moveaxis"), (3, "tensordot"), (4, "tensordot")]


def test_no_module_calls_a_contraction_helper():
    found = {path.name: named_calls(path.read_text(), CONTRACTION_HELPERS)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


# dense eigendecompositions and determinants: every step is the Borel step,
# so a factorization is a Cholesky and a determinant is a diagonal product
DENSE_SOLVERS = {"eigh", "det"}


def test_guard_sees_dense_solver_calls():
    assert named_calls(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "w, v = np.linalg.eigh(rho)\n"
        "d = abs(np.linalg.det(r)) * abs(det(s))\n"
        "e = eigh(rho)\n"
        "f = np.linalg.eigvalsh(rho) + np.linalg.slogdet(r)[1]\n"
        "det = abs(r[0, 0])\n", DENSE_SOLVERS) \
        == [(3, "eigh"), (4, "det"), (4, "det"), (5, "eigh")]


def test_no_module_calls_eigh_or_det():
    found = {path.name: named_calls(path.read_text(), DENSE_SOLVERS)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


# the step rule ranks factors by Frobenius distance, so scaling.py solves
# eigenvalues only in the start check and the lazy trace-distance solve
EIGENSOLVE_OWNERS = {"_check_start", "_Iterate.dists"}


def eigensolve_uses(source: str) -> list[tuple[str, int]]:
    """(owner, line) of each use of eigvalsh, by plain or attribute name or
    an import; the owner is the top-level function, the method as
    Class.method, the class or "<module>"."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            parts = [(f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef)
                      else top.name, node) for node in top.body]
        else:
            parts = [(top.name if isinstance(top, ast.FunctionDef) else "<module>",
                      top)]
        for owner, part in parts:
            for node in ast.walk(part):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else \
                    node.name if isinstance(node, ast.alias) else None
                if name == "eigvalsh":
                    found.append((owner, getattr(node, "lineno", part.lineno)))
    return found


def test_guard_sees_eigensolve_uses():
    assert eigensolve_uses(
        "import numpy as np\n"
        "def _check_start(stacks):\n"
        "    return np.linalg.eigvalsh(stacks[0])\n"
        "class _Iterate:\n"
        "    @property\n"
        "    def dists(self):\n"
        "        return np.linalg.eigvalsh(self.stacks[0])\n"
        "    def measure(self):\n"
        "        self.w = np.linalg.eigvalsh(self.stacks[0])\n"
        "    def rule(self):\n"
        "        from numpy.linalg import eigvalsh\n"
        "def _core_loop(it):\n"
        "    solve = np.linalg.eigvalsh\n"
        "def scaling_step(g):\n"
        "    return eigvalsh(g) + np.linalg.eigvals(g)\n"
        "low = np.linalg.eigvalsh(np.eye(2))[0]\n") \
        == [("_check_start", 3), ("_Iterate.dists", 7), ("_Iterate.measure", 9),
            ("_Iterate.rule", 11), ("_core_loop", 13), ("scaling_step", 15),
            ("<module>", 16)]


def test_scaling_solves_eigenvalues_only_at_the_start_and_for_trace_distances():
    uses = eigensolve_uses((PACKAGE / "scaling.py").read_text())
    assert {owner for owner, _ in uses} == EIGENSOLVE_OWNERS


# tensors.py owns the flattening's axis order (built by flattening), so
# scaling.py reorders no axes itself; contract and contract_folded read
# their input row-major as (P, n, Q), so they move no axis either
def test_guard_sees_transpose_calls():
    assert named_calls(
        "import numpy as np\n"
        "m = y.transpose(front).reshape(n, -1)\n"
        "w = np.transpose(y, (1, 0, 2)) + y.T + y.conj().T\n"
        "v = flattening(y, 1)\n", {"transpose"}) \
        == [(2, "transpose"), (3, "transpose")]


def test_scaling_makes_no_transpose_call():
    assert named_calls((PACKAGE / "scaling.py").read_text(), {"transpose"}) == []


def test_contract_makes_no_transpose_call():
    source = (PACKAGE / "tensors.py").read_text()
    kernels = [node for node in ast.parse(source).body
               if getattr(node, "name", None) in {"contract", "contract_folded"}]
    assert len(kernels) == 2
    for kernel in kernels:
        assert named_calls(ast.get_source_segment(source, kernel),
                           {"transpose"}) == []


# tensors._real_if_real holds the one dtype rule: the contraction kernels and
# the loop's state take their dtype from their data, so real data runs real
DTYPE_FOLLOWERS = {"scaling.py": {"_Iterate"},
                   "tensors.py": {"contract", "contract_folded", "apply_group",
                                  "compose_group"},
                   "reduction.py": {"reduce_tensor"}}
COMPLEX_TYPES = {"complex", "complex64", "complex128", "complex_", "csingle",
                 "cdouble"}


def complex_casts(source: str, owners: set[str]) -> list[tuple[str, int]]:
    """(owner, line) of each dtype=complex keyword and astype(complex) call in
    a top-level definition named in owners, the type named bare, through a
    module (np.complex128) or as a string."""
    def complex_type(node: ast.AST) -> bool:
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else \
            node.value if isinstance(node, ast.Constant) else None
        return name in COMPLEX_TYPES

    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) not in owners:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.keyword) and node.arg == "dtype" \
                    and complex_type(node.value):
                found.append((top.name, node.value.lineno))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "astype" and node.args \
                    and complex_type(node.args[0]):
                found.append((top.name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_guard_sees_complex_casts():
    assert complex_casts(
        "import numpy as np\n"
        "class _Iterate:\n"
        "    def __init__(self, x0):\n"
        "        self.group = [np.eye(n, dtype=complex) for n in x0.dims]\n"
        "def contract(m, data, i):\n"
        "    return np.dot(m.astype(np.complex128), data)\n"
        "def apply_group(g, x):\n"
        "    return [np.asarray(m, dtype='complex') for m in g]\n"
        "def identity_group(dims):\n"
        "    return tuple(np.eye(n, dtype=complex) for n in dims)\n"
        "def compose_group(g, h):\n"
        "    return [a.astype(float) @ np.asarray(b, dtype=a.dtype)\n"
        "            for a, b in zip(g, h)]\n",
        {"_Iterate", "contract", "apply_group", "compose_group"}) \
        == [("_Iterate", 4), ("contract", 6), ("apply_group", 8)]


def test_kernels_take_their_dtype_from_their_data():
    for module, owners in DTYPE_FOLLOWERS.items():
        source = (PACKAGE / module).read_text()
        assert owners <= {getattr(node, "name", None)
                          for node in ast.parse(source).body}
        assert complex_casts(source, owners) == []


def truncating_int_calls(source: str) -> list[int]:
    """Lines of comprehensions whose element is int(v) of one of their own
    loop variables, and of map(int, ...) calls: the pattern that reads 2.7
    as 2 and True as 1.  Comprehensions over a str.split(...) are exempt,
    since int('2.7') already raises."""
    def int_of(node, names) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "int" and len(node.args) == 1 \
            and isinstance(node.args[0], ast.Name) and node.args[0].id in names

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            if any(isinstance(gen.iter, ast.Call)
                   and isinstance(gen.iter.func, ast.Attribute)
                   and gen.iter.func.attr == "split" for gen in node.generators):
                continue
            names = {n.id for gen in node.generators
                     for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) \
                else [node.elt]
            if any(int_of(elt, names) for elt in elts):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "map" and node.args \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "int":
            found.append(node.lineno)
    return sorted(found)


def test_guard_sees_truncating_int_calls():
    assert truncating_int_calls(
        "a = tuple(int(v) for v in lam)\n"
        "b = [int(n) for n in x.shape]\n"
        "c = {int(p) for row in rows for p in row}\n"
        "d = {k: int(v) for k, v in pairs}\n"
        "e = tuple(map(int, values))\n"
        "f = tuple(int(v) for v in text.split(','))\n"
        "g = [int(k * v) for v in vec]\n"
        "h = [int(w) for v in vec]\n"
        "i = [as_int(v, 'lam') for v in lam]\n"
        "j = int(v) + sum(map(float, vec))\n") == [1, 2, 3, 4, 5]


def test_counts_and_partitions_are_read_only_by_the_partitions_rule():
    # partitions.as_int and as_partition are the one place that decides
    # whether a value is an integer; elsewhere int(v) would truncate
    found = {path.name: truncating_int_calls(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "partitions.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# bench/tracer.py counts a halt check as each call of scaling.apply_group, by
# the module name, made from the frame of _core_loop's nested verified_halt,
# and a rejected halt as a check that shipped no SCALED report
BRANCHES = (ast.If, ast.For, ast.While, ast.Try, ast.With, ast.IfExp,
            ast.BoolOp, ast.Lambda, ast.FunctionDef, ast.ListComp,
            ast.SetComp, ast.DictComp, ast.GeneratorExp)


def halt_apply_calls(source: str) -> list[str]:
    """Each apply_group call in _core_loop's nested verified_halt, in order:
    "once" for a call by plain name that every check makes exactly once (in
    a simple statement of the body, or of a try's body there, after no
    statement that can return, and outside any branch, loop, short circuit
    or nested function), "conditional" for another plain call, "attribute"
    for a call through an attribute, which the tracer does not see; [] when
    there is no verified_halt."""
    loop = next((n for n in ast.parse(source).body
                 if isinstance(n, ast.FunctionDef) and n.name == "_core_loop"),
                None)
    halt = next((n for n in ast.walk(loop) if isinstance(n, ast.FunctionDef)
                 and n.name == "verified_halt"), None) if loop else None
    if halt is None:
        return []
    found = []

    def visit(node, conditional):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "apply_group":
                found.append("attribute")
            elif isinstance(func, ast.Name) and func.id == "apply_group":
                found.append("conditional" if conditional else "once")
        for child in ast.iter_child_nodes(node):
            visit(child, conditional or isinstance(node, BRANCHES))

    returned = False
    for stmt in halt.body:
        for inner in stmt.body if isinstance(stmt, ast.Try) else [stmt]:
            visit(inner, returned)
            returned = returned or any(isinstance(n, ast.Return)
                                       for n in ast.walk(inner))
    return found


def test_guard_sees_uncounted_halt_checks():
    def halt(*lines):
        return ("def _core_loop(x0, it):\n"
                "    def verified_halt():\n"
                + "".join(f"        {line}\n" for line in lines)
                + "    return verified_halt\n")

    assert halt_apply_calls(halt(
        "try:",
        "    y = apply_group(it.group, x0)",
        "except ValueError:",
        "    raise",
        "it.renormalize(y.data, y.norm())",
        "return None")) == ["once"]
    assert halt_apply_calls(halt("return apply_group(it.group, x0)")) == ["once"]
    assert halt_apply_calls(halt(
        "if it.dirty:",
        "    y = apply_group(it.group, x0)",
        "y = tensors.apply_group(it.group, x0)",
        "z = [apply_group(g, x0) for g in it.groups]",
        "w = it.ok and apply_group(it.group, x0)")) \
        == ["conditional", "attribute", "conditional", "conditional"]
    assert halt_apply_calls(halt(
        "if it.clean:",
        "    return None",
        "y = apply_group(it.group, x0)")) == ["conditional"]
    assert halt_apply_calls(halt(
        "y = apply_group(it.group, x0)",
        "z = apply_group(it.group, y)")) == ["once", "once"]
    assert halt_apply_calls("def _core_loop(x0, it):\n"
                            "    return apply_group(it.group, x0)\n") == []


def test_each_halt_check_is_one_counted_resync():
    # exactly one counted call per check: a second one would double the
    # benchmark's rejected-halt count, a skipped one would undercount it
    assert halt_apply_calls((PACKAGE / "scaling.py").read_text()) == ["once"]


# public functions and public class members of the package that neither the
# engine, the CLI nor the benchmark calls: each stays on purpose, or it
# belongs in the tests
BENCH = PACKAGE.parent.parent / "bench"
KEPT_API = {
    # the tensor primitives and the float target diagonals
    # (TargetSpectrum.ascending) tests/test_loop_reference.py builds its
    # reference loop from, now that the engine keys its loop constants by
    # the cached float tuple; spectrum, which acceptance criteria 02 and 06
    # and tests/test_oracle.py read spectra with; and the partition
    # predicate that README documents
    "marginal", "trace_distance", "ascending", "spectrum", "is_partition",
}


def public_functions(source: str) -> set[str]:
    """Names without a leading underscore of the module-level functions and
    of the methods, properties and classmethods of public classes."""
    body = ast.parse(source).body
    members = [node for cls in body if isinstance(cls, ast.ClassDef)
               and not cls.name.startswith("_") for node in cls.body]
    return {node.name for node in body + members
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree loads, reaches as an attribute or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
    return found


def unreferenced_functions(package: dict[str, str],
                           users: list[str]) -> list[str]:
    """Public functions of the package modules (file name to source) that
    no other package module than __init__.py, and no user source, names."""
    defined = set().union(*map(public_functions, package.values()))
    sources = users + [source for name, source in package.items()
                       if name != "__init__.py"]
    named = set().union(*(referenced_names(ast.parse(source))
                          for source in sources))
    return sorted(defined - named)


def test_guard_sees_unreferenced_helpers():
    package = {
        "__init__.py": "from .a import helper, used, via_attribute\n",
        "a.py": "def used(): pass\n"
                "def helper(): pass\n"
                "def via_attribute(): pass\n"
                "def _private(): pass\n"
                "class Kept:\n"
                "    def method(self): pass\n",
        "b.py": "from .a import used\n",
    }
    users = ["import tenscale as ts\nts.via_attribute()\n"]
    assert unreferenced_functions(package, users) == ["helper", "method"]
    assert unreferenced_functions(package, []) == ["helper", "method",
                                                   "via_attribute"]


def test_src_keeps_only_called_or_kept_functions():
    package = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    users = [path.read_text() for path in BENCH.glob("*.py")]
    assert users
    assert set(unreferenced_functions(package, users)) - KEPT_API == set()
    assert KEPT_API <= set().union(*map(public_functions, package.values()))


def unreferenced_private(package: dict[str, str]) -> list[str]:
    """Underscore-prefixed top-level functions and classes of the package
    modules (file name to source) that no top-level statement of a package
    module names, other than their own definition."""
    tops = [node for source in package.values()
            for node in ast.parse(source).body]
    private = {node.name for node in tops
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")}
    named = set().union(*(referenced_names(node)
                          - {getattr(node, "name", None)} for node in tops))
    return sorted(private - named)


def test_guard_sees_unreferenced_private_helpers():
    package = {
        "__init__.py": "from .a import run\n",
        "a.py": "def run(): return _used() + _Box().v\n"
                "def _used(): return 1\n"
                "def _recursive(n): return _recursive(n - 1)\n"
                "def _dead(): pass\n"
                "class _Box:\n"
                "    v = 1\n"
                "class _Orphan:\n"
                "    def copy(self): return _Orphan()\n"
                "def _tabled(): pass\n",
        "b.py": "from . import a\n"
                "TABLE = {'x': a._tabled}\n",
    }
    assert unreferenced_private(package) == ["_Orphan", "_dead", "_recursive"]


def test_src_keeps_only_called_private_helpers():
    package = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private(package) == []


def file_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call to open, by bare name or as an attribute
    (os.open, a path's .open), and of each json.load, by attribute through
    any alias of json or by a name imported from it."""
    tree = ast.parse(source)
    modules, loads = set(), {"open"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            loads.update(a.asname or a.name for a in node.names
                         if a.name == "load")
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id in loads:
            found.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and (
                func.attr == "open" or func.attr == "load"
                and isinstance(func.value, ast.Name) and func.value.id in modules):
            found.append((node.lineno, func.attr))
    return sorted(found)


def test_guard_sees_file_reads():
    assert file_reads("import json as j\n"
                      "from json import load as parse, loads\n"
                      "with open(path) as fh:\n"
                      "    doc = j.load(fh)\n"
                      "fd = os.open(path, 0)\n"
                      "text = Path(path).open().read()\n"
                      "obj = parse(fh) or loads(text) or json.loads(text)\n"
                      "arr = np.load(path)\n") \
        == [(3, "open"), (4, "load"), (5, "open"), (6, "open"), (7, "parse")]


def test_only_the_cli_reads_files():
    # io converts documents and cli reads every input file, so a schema
    # error names the path that cli passes as ``where``
    found = {path.name: file_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("cli.py")
    assert {name: calls for name, calls in found.items() if calls} == {}
