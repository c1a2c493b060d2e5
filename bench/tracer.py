"""Timing wrappers for galmckay's public entry points.

The wrappers are installed from outside the package, so the package itself
is not edited.  Every entry point is looked up by name: one that a refactor
deleted or renamed is recorded as absent, and a metric none of whose entry
points exists is left out of the result instead of breaking the benchmark.

Each wrapped call is charged to its module's layer.  A layer's self time is
the time of its calls minus the time of the wrapped calls they make, so the
self times of all layers add up to the time covered by the outermost wrapped
calls.  Entry points marked hot (a trailing ``*`` below) run up to millions
of times per invocation and keep only a count and a total; the others also
record a span ``[entry, start, end, parent span index]`` in memory.
"""

import functools
import importlib
import inspect
import sys
import time
import weakref

PACKAGE = "galmckay"

# module -> its public entry points; "Class.attr" names a method or property
ENTRY_POINTS = {
    "groups": """
        identity_perm* compose* inverse* conjugate* perm_order* perm_pow*
        is_perm* FiniteGroup.__init__* FiniteGroup.order*
        FiniteGroup.__contains__* FiniteGroup.__len__* FiniteGroup.elements*
        FiniteGroup.element_index* FiniteGroup.parents*
        FiniteGroup.conjugacy_classes* FiniteGroup.class_of*
        FiniteGroup.class_of_element* FiniteGroup.power_map*
        FiniteGroup.exponent* FiniteGroup.centralizer_order*
        FiniteGroup.subgroup FiniteGroup.sylow_subgroup FiniteGroup.normalizer
        GroupMap.__init__* GroupMap.table* GroupMap.apply* GroupMap.index_map
        GroupMap.compose_with* GroupMap.is_identity* GroupMap.map_order
        GroupMap.is_inner identity_map* induced_class_permutation*
        SemidirectProduct.embedded_subgroup semidirect_product cyclic_group
        symmetric_group""",
    "cyclo": """
        Cyclotomic.__init__* Cyclotomic.order* Cyclotomic.is_zero*
        Cyclotomic.is_rational* Cyclotomic.rational_value*
        Cyclotomic.is_integer* Cyclotomic.integer_value* Cyclotomic.is_real*
        Cyclotomic.from_rational* Cyclotomic.root* Cyclotomic.__add__*
        Cyclotomic.__radd__* Cyclotomic.__neg__* Cyclotomic.__sub__*
        Cyclotomic.__rsub__* Cyclotomic.__mul__* Cyclotomic.__rmul__*
        Cyclotomic.inv* Cyclotomic.__truediv__* Cyclotomic.__rtruediv__*
        Cyclotomic.galois* Cyclotomic.conj* Cyclotomic.__eq__*
        Cyclotomic.__bool__* Cyclotomic.__hash__* Cyclotomic.terms*
        Cyclotomic.approx* Cyclotomic.serialize* Cyclotomic.deserialize*
        make_root* rational* add* mul* neg* inv* galois_apply* conj*
        is_rational* is_real* approx_complex* sum_cyclo*""",
    "chartab": """
        ClassFunction.__init__* ClassFunction.degree* ClassFunction.degree_int*
        ClassFunction.__eq__* ClassFunction.__hash__* ClassFunction.__add__*
        ClassFunction.__sub__* ClassFunction.__mul__* ClassFunction.__rmul__*
        ClassFunction.conj* ClassFunction.galois* ClassFunction.sort_key*
        inner_product* CharacterTable.__init__* CharacterTable.row_index*
        CharacterTable.degrees* CharacterTable.p_prime_rows*
        CharacterTable.validate dixon_prime* dixon_schneider induce* restrict*
        regular_character* trivial_character*""",
    "galois": """
        GaloisElement.__init__* GaloisElement.compose* GaloisElement.inverse*
        GaloisElement.is_identity* GaloisElement.apply* h_group
        full_galois_group act_on_table* power_compatibility_check
        McKayLabel.__init__* clifford_label""",
    "extend": """
        ExtensionSet.__init__* ExtensionWitness.__init__* find_extensions
        joint_stabilizer invariant_extension_exists
        unique_multiplicity_one_extension""",
    "verify": """
        ActionOnSet.__init__* ActionOnSet.is_abelian* ActionOnSet.stabilizer*
        ActionOnSet.orbits* match_actions brute_force_match_exists
        automorphism_row_perm joint_row_action condition_one extension_sweep
        torus_polynomials lemma_congruence_check tables_equivalent
        cross_model_check global_table stable_sylow_setup target_mode
        list_targets local_model_group out_of_scope_report full_target_setup
        target_joint_actions verify_target""",
    "zoo": """
        FiniteField.__init__* FiniteField.add* FiniteField.neg* FiniteField.sub*
        FiniteField.mul* FiniteField.pow* FiniteField.inv* FiniteField.frob*
        FiniteField.generator* suzuki_group psl2_8 agl18_normalizer small_group
        field_automorphism TorusNormalizerSpec.torus_order*
        TorusNormalizerSpec.torus_subgroup torus_rows torus_normalizer""",
    "cli": "run serialize_table deserialize_table",
}

_CYCLO_OPS = " ".join("cyclo.Cyclotomic." + m for m in (
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ inv galois conj __eq__ __hash__").split())

# metric -> (kind, argument):
#   self   the layer's self time
#   time   time inside the outermost calls to any of the entry points
#   calls  number of calls to any of the entry points
#   new    summed len() of the result, once per receiving object
#   rows   summed number of classes of the returned tables
METRICS = {
    "groups.self_s": ("self", "groups"),
    "groups.enumerate_s": ("time", "groups.FiniteGroup.elements "
                                   "groups.FiniteGroup.element_index"),
    "groups.classes_s": ("time", "groups.FiniteGroup.conjugacy_classes "
                                 "groups.FiniteGroup.class_of "
                                 "groups.FiniteGroup.class_of_element "
                                 "groups.FiniteGroup.power_map"),
    "groups.sylow_normalizer_s": ("time", "groups.FiniteGroup.sylow_subgroup "
                                          "groups.FiniteGroup.normalizer"),
    "groups.automorphism_s": ("time", "groups.GroupMap.__init__ "
                                      "groups.GroupMap.map_order "
                                      "groups.GroupMap.compose_with "
                                      "groups.induced_class_permutation"),
    "groups.semidirect_s": ("time", "groups.semidirect_product"),
    "groups.order_s": ("time", "groups.FiniteGroup.order"),
    "groups.groups_built": ("calls", "groups.FiniteGroup.__init__"),
    "groups.elements_enumerated": ("new", "groups.FiniteGroup.elements "
                                          "groups.FiniteGroup.element_index"),
    "cyclo.self_s": ("self", "cyclo"),
    "cyclo.ops": ("calls", _CYCLO_OPS),
    "chartab.self_s": ("self", "chartab"),
    "chartab.dixon_schneider_s": ("time", "chartab.dixon_schneider"),
    "chartab.validate_s": ("time", "chartab.CharacterTable.validate"),
    "chartab.inner_product_s": ("time", "chartab.inner_product"),
    "chartab.tables": ("calls", "chartab.dixon_schneider"),
    "chartab.classes": ("rows", "chartab.dixon_schneider"),
    "galois.self_s": ("self", "galois"),
    "galois.act_on_table_s": ("time", "galois.act_on_table"),
    "galois.clifford_s": ("time", "galois.clifford_label"),
    "extend.self_s": ("self", "extend"),
    "extend.find_extensions_s": ("time", "extend.find_extensions"),
    "extend.invariant_s": ("time", "extend.invariant_extension_exists"),
    "extend.products": ("calls", "groups.semidirect_product"),
    "verify.self_s": ("self", "verify"),
    "verify.match_s": ("time", "verify.match_actions "
                               "verify.joint_row_action"),
    "verify.stable_sylow_s": ("time", "verify.stable_sylow_setup"),
    "zoo.self_s": ("self", "zoo"),
    "zoo.build_s": ("time", "zoo.suzuki_group zoo.psl2_8 "
                            "zoo.torus_normalizer zoo.field_automorphism"),
    "cli.self_s": ("self", "cli"),
}


class Tracer:
    """Installs the wrappers and turns what they record into metrics."""

    def __init__(self, entry_points=None, metrics=None, package=PACKAGE):
        self.entry_points = ENTRY_POINTS if entry_points is None \
            else entry_points
        self.metric_kinds = METRICS if metrics is None else metrics
        self.package = package
        self.stack = [0.0]        # wrapped time of the children of each open call
        self.open_spans = [-1]
        self.spans = []
        self.layer_self = {}      # layer -> [seconds]
        self.calls = {}           # entry -> [count]
        self.timers = {}          # metric -> [depth, seconds]
        self.sizes = {}           # metric -> [total]
        self.hooks = {}           # metric -> hook(args, result)
        self.installed = []
        self.absent = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every entry point that exists; record the others as absent."""
        entries = {}
        for metric, (kind, arg) in self.metric_kinds.items():
            if kind == "time":
                self.timers[metric] = [0, 0.0]
            elif kind in ("new", "rows"):
                self.sizes[metric] = [0]
                self.hooks[metric] = self._size_hook(kind,
                                                     self.sizes[metric])
        for layer, names in self.entry_points.items():
            try:
                module = importlib.import_module(self.package + "." + layer)
            except ImportError:
                module = None
            for token in names.split():
                name = token.rstrip("*")
                entry = layer + "." + name
                entries[entry] = (module, layer, name, token.endswith("*"))
        for entry, (module, layer, name, hot) in entries.items():
            if module is None or not self._install_one(
                    module, layer, name, entry, hot):
                self.absent.append(entry)

    def _install_one(self, module, layer, name, entry, hot):
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        wrap = functools.partial(self._wrapper, entry=entry, layer=layer,
                                 hot=hot)
        if isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__))
        elif isinstance(raw, property):
            if raw.fget is None:
                return False
            new = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(wrap(raw.func))
            new.__set_name__(owner, attr)
        elif callable(raw) and not isinstance(raw, type):
            new = wrap(raw)
        else:
            return False
        setattr(owner, attr, new)
        if owner is module:
            # names bound by "from .module import name" elsewhere
            prefix = self.package + "."
            for mod_name, other in list(sys.modules.items()):
                if other is None or other is module or not (
                        mod_name == self.package
                        or mod_name.startswith(prefix)):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, new)
        self.installed.append(entry)
        return True

    def _wrapper(self, fn, entry, layer, hot):
        clock = time.perf_counter
        stack, spans, open_spans = self.stack, self.spans, self.open_spans
        acc = self.layer_self.setdefault(layer, [0.0])
        count = self.calls.setdefault(entry, [0])
        timers = tuple(self.timers[m] for m, (kind, arg)
                       in self.metric_kinds.items()
                       if kind == "time" and entry in arg.split())
        hooks = tuple(hook for m, hook in self.hooks.items()
                      if entry in self.metric_kinds[m][1].split())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            for t in timers:
                t[0] += 1
            if not hot:
                open_spans.append(len(spans))
                spans.append([entry, 0.0, 0.0, open_spans[-2]])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                acc[0] += dt - stack.pop()
                stack[-1] += dt
                count[0] += 1
                for t in timers:
                    t[0] -= 1
                    if not t[0]:
                        t[1] += dt
                if not hot:
                    span = spans[open_spans.pop()]
                    span[1] = start
                    span[2] = end
            for hook in hooks:
                hook(args, result)
            return result

        return wrapper

    @staticmethod
    def _size_hook(kind, total):
        """Adds the size of a result to total; other shapes are skipped, so
        a changed return type cannot break the traced program."""
        seen = weakref.WeakSet()

        def hook(args, result):
            try:
                if kind == "rows":
                    total[0] += len(result.classes)
                elif args[0] not in seen:
                    seen.add(args[0])
                    total[0] += len(result)
            except (AttributeError, IndexError, TypeError):
                pass
        return hook

    # -- results -----------------------------------------------------------

    def metrics(self):
        """(metrics, absent): every metric with an installed entry point,
        and the names of the metrics without one."""
        installed = set(self.installed)
        out, absent = {}, []
        for metric, (kind, arg) in self.metric_kinds.items():
            if kind == "self":
                present = any(e.startswith(arg + ".") for e in installed)
                value = self.layer_self.get(arg, [0.0])[0]
            else:
                names = arg.split()
                present = any(e in installed for e in names)
                if kind == "time":
                    value = self.timers[metric][1]
                elif kind == "calls":
                    value = sum(self.calls.get(e, [0])[0] for e in names)
                else:
                    value = self.sizes[metric][0]
            if present:
                out[metric] = value
            else:
                absent.append(metric)
        return out, absent
