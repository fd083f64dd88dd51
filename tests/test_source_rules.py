"""Checks on the library source itself."""

import ast
from pathlib import Path

from lacuna import blackbox, errors

SRC = Path(__file__).resolve().parent.parent / "src" / "lacuna"


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # python -O strips assert statements, and an AssertionError reads as a
    # failed assert: invariants must raise a real error type explicitly
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert not found, f"assert statements or raise AssertionError in src/lacuna: {found}"


def test_no_module_imports_random():
    # the paper's guarantee is deterministic: the library draws no random
    # numbers, so every run of a solve takes the same steps
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "random" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"imports of random in src/lacuna: {found}"



def test_no_numpy_roll():
    # grids rotate through densepoly._rotate, two slices and a concatenation:
    # numpy's roll gives the same array at about 11 us a call against 2-5 us
    # at p = 347-11,503, and the shift filter rotates 2t + 2 times a prime
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            if "roll" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"uses of numpy's roll in src/lacuna: {found}"


def test_no_float_matrix_product_outside_the_exact_helper():
    # a float64 matrix product is exact only while its sums stay below 2^53;
    # densepoly._geometric_sums sizes its limbs and chunks to that, so every
    # product of grid residues goes through it
    products = {"@", "dot", "vdot", "tensordot", "matmul", "einsum"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        if path.name == "densepoly.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_geometric_sums")
            exempt = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if products & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"matrix products outside densepoly._geometric_sums: {found}"


def test_one_recurrence_check():
    # "at most s terms" is decided in one place, the cyclic check of
    # densepoly._sparse_recurrence, for the sparse kernel and every shift
    # candidate alike: no other code names Berlekamp-Massey
    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        core = next((node for node in tree.body if isinstance(node, ast.FunctionDef)
                     and node.name == "_sparse_recurrence"), None)
        exempt = {id(node) for node in ast.walk(core)} if core is not None else set()
        for node in ast.walk(tree):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            if "_berlekamp_massey" in names:
                if id(node) in exempt:
                    inside += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"Berlekamp-Massey named outside densepoly._sparse_recurrence: {found}"
    assert inside, "densepoly._sparse_recurrence runs no Berlekamp-Massey"


def _is_mod_of_rest(stmt):
    """``_mod(rest, ...)`` as a statement, or ``rest = _mod(rest, ...)``."""
    call = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) else None
    if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] != ["rest"]:
        return False
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_mod" and bool(call.args)
            and isinstance(call.args[0], ast.Name) and call.args[0].id == "rest")


def _accumulates_into_rest(stmt):
    if isinstance(stmt, ast.AugAssign):
        return isinstance(stmt.target, ast.Name) and stmt.target.id == "rest"
    return (isinstance(stmt, ast.Assign) and not _is_mod_of_rest(stmt)
            and [getattr(t, "id", None) for t in stmt.targets] == ["rest"]
            and any(isinstance(n, ast.Name) and n.id == "rest" for n in ast.walk(stmt.value)))


def test_recurrence_check_reduces_after_every_product():
    # densepoly._sparse_recurrence keeps p + (p-1)^2 < 2^63 only by reducing
    # its sum after each product conn[m] * a_(j-m): reduced once after the
    # loop, a sum of L such products passes int64 above p ~ 2^30.5, where
    # no test can build a whole grid.  So every loop iteration that adds
    # into rest calls _mod on it before the next product.
    path = SRC / "densepoly.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    core = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_sparse_recurrence")
    loops = [node for node in ast.walk(core) if isinstance(node, (ast.For, ast.While))
             and any(_accumulates_into_rest(stmt) for stmt in node.body)]
    assert loops, "densepoly._sparse_recurrence adds into rest in no loop"
    found = []
    for loop in loops:
        pending = None  # the last addition not yet reduced
        for stmt in loop.body:
            if _accumulates_into_rest(stmt):
                if pending is not None:
                    found.append(f"densepoly.py:{pending.lineno}")
                pending = stmt
            elif _is_mod_of_rest(stmt):
                pending = None
        if pending is not None:
            found.append(f"densepoly.py:{pending.lineno}")
    assert not found, f"additions into rest not reduced before the next product: {found}"


def test_no_catch_all_except():
    # every handler names the errors it expects, so a broken invariant or a
    # typo surfaces instead of being read as a failed reconstruction
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in broad
                                        for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare except or except Exception in src/lacuna: {found}"


def _cache_decorators(func):
    """The decorators of ``func`` that are functools caches, by name."""
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("lru_cache", "cache"):
            yield dec


def test_every_cache_is_bounded():
    # a cache holds every result it keeps alive, and a solve asks for one
    # table and one sums array per prime: an unbounded cache of those would
    # grow with every prime of every solve
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in _cache_decorators(node):
                args = [*dec.args[:1], *(k.value for k in dec.keywords if k.arg == "maxsize")] \
                    if isinstance(dec, ast.Call) else []
                bounded = [a for a in args if isinstance(a, ast.Constant)
                           and isinstance(a.value, int) and not isinstance(a.value, bool)]
                if not bounded:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, f"caches without a finite maxsize in src/lacuna: {found}"


def test_cached_arrays_are_read_only():
    # every hit of a cache returns the same array: a caller writing to it
    # would change what every later hit reads
    from lacuna.blackbox import _lacunary_grid
    from lacuna.densepoly import _generator_powers, _generator_steps

    for p in (2, 3, 1187):
        pw = _generator_powers(p)
        grid = _lacunary_grid(1, 0, (p - 1,), (5,), p)
        assert not pw.flags.writeable and not grid.flags.writeable
        assert _generator_powers(p) is pw and _lacunary_grid(1, 0, (p - 1,), (5,), p) is grid
        shifted = _lacunary_grid(1, 1, (p - 1,), (5,), p)
        assert not shifted.flags.writeable and _lacunary_grid(1, 1, (p - 1,), (5,), p) is shifted
        steps = _generator_steps(p)
        assert not any(a.flags.writeable for a in steps)
        assert all(a is b for a, b in zip(_generator_steps(p), steps))


def test_sparse_interp_names_its_reconstruction_misfits_once():
    # _reconstruct turns every misfit of the images into NoReconstruction;
    # a second handler naming them would be a second copy of that list
    path = SRC / "sparse_interp.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    handlers = {"NotSplitting": [], "NoMatch": [], "AmbiguousMatch": []}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for c in caught:
            if isinstance(c, ast.Name) and c.id in handlers:
                handlers[c.id].append(node.lineno)
    assert all(len(lines) <= 1 for lines in handlers.values()), handlers


def test_sparse_interp_confirms_candidates_without_a_box():
    # a padding prime is confirmed against the candidate's grid from
    # blackbox._lacunary_grid, the cache a lacunary box's grid fills: naming
    # LacunaryBox or reading a box's _grid would evaluate a whole second
    # grid per prime
    path = SRC / "sparse_interp.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        names = (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        found += [f"{n}:{node.lineno}" for n in names if n in ("LacunaryBox", "_grid")]
    assert not found, f"sparse_interp names a box's grid: {found}"


def test_no_pipeline_module_queries_a_shifted_view():
    # sparse_interpolate takes the shift and queries the box itself: a
    # ShiftedBox in the pipeline would rotate every grid back by +alpha
    # after the lacunary box rotated it by -alpha, and its padding primes
    # would miss the grid cache
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "blackbox.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in ("shifted_blackbox", "ShiftedBox"):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"shifted views built outside blackbox: {found}"


def test_every_prime_image_is_built_by_one_constructor():
    # PrimeImage._from_terms sums the residues per slot, drops zero sums and
    # sorts the slots; an image built elsewhere could skip one of the three
    path = SRC / "sparse_interp.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    image = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "PrimeImage")
    ctor = next((node for node in image.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_from_terms"), None)
    inside = {id(node) for node in ast.walk(ctor)} if ctor is not None else set()
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("PrimeImage", "cls")]
    outside = [f"sparse_interp.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert not outside, f"PrimeImage built outside PrimeImage._from_terms: {outside}"
    assert len(calls) == 1, "PrimeImage._from_terms builds no image"


# the built-in errors the library raises besides its own LacunaError types:
# ValueError for bad input, RuntimeError for a broken internal invariant,
# NotImplementedError for the box base class's own contract
_BUILTIN_ERRORS = {"ValueError", "RuntimeError", "NotImplementedError"}


def test_every_raise_names_a_typed_error():
    # the command line gives every LacunaError and every ValueError an exit
    # code; a new exception type would escape it as a traceback
    allowed = _BUILTIN_ERRORS | {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.LacunaError)
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what was caught
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise of an untyped error in src/lacuna: {found}"


def test_every_library_box_evaluates_grids_in_bulk():
    # the base class's point-by-point _grid is for boxes defined outside the
    # library: a library box falling back to it costs p Python calls a prime.
    # A box may inherit a bulk _grid from another library box.
    boxes = [
        cls for cls in vars(blackbox).values()
        if isinstance(cls, type) and issubclass(cls, blackbox.ModularBlackBox)
        and cls is not blackbox.ModularBlackBox and cls.__module__ == blackbox.__name__
    ]
    assert boxes, "no box classes in lacuna.blackbox"
    missing = [cls.__name__ for cls in boxes if cls._grid is blackbox.ModularBlackBox._grid]
    assert not missing, f"boxes without a bulk _grid: {missing}"
