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
    # grow with every prime of every solve.  is_prime keeps only ints.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "is_prime":
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
    from lacuna.densepoly import _generator_powers, _generator_steps, _geometric_sums

    for p in (2, 3, 1187):
        pw = _generator_powers(p)
        sums = _geometric_sums((1, p - 1), (0, 5), p)
        assert not pw.flags.writeable and not sums.flags.writeable
        assert _generator_powers(p) is pw and _geometric_sums((1, p - 1), (0, 5), p) is sums
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
    # a padding prime is confirmed from the candidate's residues and sums in
    # the generator's order: naming LacunaryBox or reading a box's _grid
    # would evaluate a whole second grid per prime
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
