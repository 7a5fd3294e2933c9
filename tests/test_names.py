"""Every module-level name, every public class member and every dataclass
field of the package has a reader, and every defaulted parameter a caller
that sets it.

A public module-level function or class of `src/polyscat`, and a public
method or property of one of its classes, must be referenced from the
package itself, a demo, the benchmark harness or the acceptance tests.
Unit tests alone do not keep a name alive.  The exceptions are listed
with the item of ROADMAP.md that will call them.  A member is matched by
name, so it counts as read wherever any attribute of that name is.
A private module-level name must be referenced somewhere outside its
own definition:
in the package, a demo, the benchmark harness or any test.  A dataclass
field must be read as an attribute in one of those places, unless its
class is written out whole by `asdict`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "polyscat"
SOURCES = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))
READERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"]
PRIVATE_READERS = SOURCES + sorted((ROOT / "tests").glob("*.py"))

ALLOWED = {
    "sphere_norm_from_decomposition": "ROADMAP item 2",
    "propagate_outside_hull": "ROADMAP item 2",
}
ALLOWED_MEMBERS = {
    "EstimateBudget.to_dict": "ROADMAP item 10",
}


def _defined(path, private=False):
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def _members(path):
    """(class, name) of every public method and property of the classes
    defined at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name, item.name


def _names(node, own):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found = sub.id
        elif isinstance(sub, ast.Attribute):
            found = sub.attr
        elif isinstance(sub, ast.alias):
            found = sub.name.rsplit(".", 1)[-1]
        else:
            continue
        if found not in own:
            yield found


def _referenced(path):
    """Names, attributes and imported names in a file, apart from each
    top-level definition's references to itself and each class member's
    references to itself."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        own = {getattr(stmt, "name", None)}
        if not isinstance(stmt, ast.ClassDef):
            names.update(_names(stmt, own))
            continue
        for part in stmt.bases + stmt.keywords + stmt.decorator_list:
            names.update(_names(part, own))
        for item in stmt.body:
            names.update(_names(item, own | {getattr(item, "name", None)}))
    return names


def test_every_public_name_has_a_reader():
    defined = set().union(*(_defined(p) for p in sorted(PACKAGE.glob("*.py"))))
    referenced = set().union(*(_referenced(p) for p in READERS))
    assert sorted(defined - referenced) == sorted(ALLOWED)


def test_every_public_member_has_a_reader():
    members = {f"{cls}.{name}" for p in sorted(PACKAGE.glob("*.py"))
               for cls, name in _members(p)}
    referenced = set().union(*(_referenced(p) for p in READERS))
    unread = {m for m in members if m.split(".")[1] not in referenced}
    assert sorted(unread) == sorted(ALLOWED_MEMBERS)


def test_every_private_name_has_a_reader():
    defined = set().union(*(_defined(p, private=True)
                            for p in sorted(PACKAGE.glob("*.py"))))
    referenced = set().union(*(_referenced(p) for p in PRIVATE_READERS))
    assert sorted(defined - referenced) == []


# Dataclasses that `asdict` writes out whole: a field is read by being
# written to a CSV or JSON row.
WRITTEN_WHOLE = {
    "StabilityRecord": "asdict writes each record to support_stability.csv",
    "CornerRecord": "asdict writes each record to corner_lower_bound.csv",
    "EstimateBudget": "to_dict writes every field with asdict",
}


def _dataclass_fields(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield node.name, stmt.target.id


def _attributes_read(path):
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    read = set().union(*(_attributes_read(p) for p in PRIVATE_READERS))
    unread = [f"{cls}.{name}" for p in sorted(PACKAGE.glob("*.py"))
              for cls, name in _dataclass_fields(p)
              if cls not in WRITTEN_WHOLE and name not in read]
    assert unread == []


# A defaulted parameter must be set by a call in the package, the benchmark
# harness or the acceptance tests; unit tests and demos do not count.  The
# exceptions are listed with what keeps them.
CALLERS = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
ALLOWED_DEFAULTS = {
    "decompose_far_field.J": "ROADMAP item 2",
    "propagate_chain.clearance": "switches on the domain-boundary check",
}


def _functions(path):
    """(class or None, def) for each module-level function and each method
    of a module-level class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item


def _signatures():
    """{(class or None, name): (parameters a call may pass by position,
    defaulted parameters)} for the functions and methods of the package;
    a method's `self` is left out."""
    sigs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, fn in _functions(path):
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            static = any(ast.unparse(d) == "staticmethod"
                         for d in fn.decorator_list)
            if owner is not None and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            sigs[(owner, fn.name)] = (positional, defaulted)
    return sigs


def _call_targets(call, bases, sigs):
    """(signature key, index of the call's first positional argument among
    the signature's positional parameters) for each function a call may
    reach.  A call names a function, or a class for its `__init__`;
    `super().name` reaches the method of the enclosing class's `bases`,
    `Base.name(obj, ...)` the method of Base with `obj` as `self`, and
    any other `obj.name` every method of that name."""
    f = call.func
    if isinstance(f, ast.Name):
        return [(key, 0) for key in ((None, f.id), (f.id, "__init__"))
                if key in sigs]
    if not isinstance(f, ast.Attribute):
        return []
    value = f.value
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "super"):
        return [((base, f.attr), 0) for base in bases
                if (base, f.attr) in sigs]
    if isinstance(value, ast.Name) and (value.id, f.attr) in sigs:
        return [((value.id, f.attr), -1)]
    if f.attr == "__init__":
        return []
    return [(key, 0) for key in sigs if key[1] == f.attr]


def _set_parameters(sigs):
    """The (class or None, name, parameter) triples some caller sets, by
    position or by keyword."""
    found = set()
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        # each call once, with the bases of the class it sits in
        scopes = [([], node) for node in tree.body
                  if not isinstance(node, ast.ClassDef)]
        scopes += [([ast.unparse(b) for b in node.bases], node)
                   for node in tree.body if isinstance(node, ast.ClassDef)]
        for bases, scope in scopes:
            for call in ast.walk(scope):
                if not isinstance(call, ast.Call):
                    continue
                # a starred argument may fill every remaining position
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                for key, first in _call_targets(call, bases, sigs):
                    positional = sigs[key][0]
                    n_pos = (len(positional) if starred
                             else max(len(call.args) + first, 0))
                    names = positional[:n_pos] + [k.arg for k in call.keywords]
                    found.update((*key, name) for name in names)
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    sigs = _signatures()
    found = _set_parameters(sigs)
    unset = {f"{name if cls is None else cls + '.' + name}.{p}"
             for (cls, name), (_, defaulted) in sigs.items()
             for p in defaulted if (cls, name, p) not in found}
    assert sorted(unset) == sorted(ALLOWED_DEFAULTS)
