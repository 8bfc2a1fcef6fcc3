"""In-memory span tracer for the per-layer run of the ptosc benchmark.

Spans are recorded from the benchmark's own files: functions are wrapped at
the import sites that the layer above looks them up from (``ptosc.cli``'s
names, ``validation``'s direct imports and its ``prob``/``states`` module
references, ``probabilities``' operator and state helpers, ``oracle``'s
spectral solve), so nothing under ``src/`` changes.  Each span keeps its
name, start, end, parent span and the id of the ``cli.main`` call it
belongs to; the arrays stay in memory until :func:`write_spans` at the end
of the run.

A wrapped name that the program no longer has is recorded in ``absent``
and its metrics are reported as absent instead of failing the run.
"""

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Names looked up through a module attribute of the site, e.g. ``ptosc.cli``'s
# ``eigensystem`` or ``ptosc.validation.prob``'s ``probability_trace``.
SITES = {
    ("cli",): (
        "eigensystem", "make_params", "params_from_eta", "probability_trace",
        "survival_probability", "transition_probability",
        "hermitian_transition_probability", "naive_continuation_value",
        "check_all", "_emit",
    ),
    ("validation",): (
        "inner", "pt_conjugate", "cpt_conjugate", "pt_inner", "cpt_inner",
        "dirac_inner", "eigensystem", "make_params", "numeric_eigensystem",
        "brute_force_probability", "brute_force_dirac_norm",
        "brute_force_dirac_overlap",
    ),
    ("validation", "prob"): (
        "probability_trace", "probability_closed_form", "transition_probability",
        "hermitian_transition_probability", "naive_continuation_value",
        "dirac_norm", "dirac_overlap",
    ),
    ("validation", "states"): (
        "flavour_ket", "tilde_bra", "cpt_bra", "dirac_bra", "mixed_basis_ket",
        "mixed_basis_bra", "xi",
    ),
    # module globals that probability_trace and the oracle call internally
    ("probabilities",): ("density_operator", "projection_operator", "mixed_basis_pair"),
    ("states",): ("cpt_conjugate",),
    ("oracle",): ("_spectral_data", "numeric_eigensystem"),
}

CHECK_PREFIX = "_check_"


class Tracer:
    """Span store plus the exception and family-name bookkeeping."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.call = 0
        self.raised: Counter = Counter()   # (span name, exception type) -> count
        self.family: dict[str, str] = {}   # _check_* span name -> check_name
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, call_id = self.name_id, self.parent, self.call_id
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            call_id.append(self.call)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def root(self, fn):
        """Wrap the entry point: every call opens a new call id."""
        traced = self.wrap("cli.main", fn)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            self.call += 1
            return traced(*args, **kwargs)

        return entry

    def _family(self, span: str, fn):
        traced = self.wrap(span, fn)

        @functools.wraps(fn)
        def check(*args, **kwargs):
            family = traced(*args, **kwargs)
            self.family.setdefault(span, getattr(family, "name", span))
            return family

        return check


def span_name(fn) -> str:
    """``<module>.<function>`` of the defining module, the same at every site."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class _Proxy:
    """Stands in for a module reference: wrapped names first, then the module."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


def install(tracer: Tracer, package) -> list:
    """Wrap every site in SITES, the ``_check_*`` families and the CLI
    command table.  Returns undo actions for :func:`uninstall`."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrapped(owner, names, where):
        out = {}
        for attr in names:
            fn = getattr(owner, attr, None)
            if callable(fn):
                out[attr] = tracer.wrap(span_name(fn), fn)
            else:
                tracer.absent.append(f"{where}.{attr}")
        return out

    # module globals first, so proxies built below see the wrapped versions
    for path, names in sorted(SITES.items(), key=lambda item: len(item[0])):
        where = ".".join(path)
        module = getattr(package, path[0], None)
        if module is None:
            tracer.absent.append(where)
            continue
        if len(path) == 1:
            for attr, fn in wrapped(module, names, where).items():
                patch(module, attr, fn)
            continue
        target = getattr(module, path[1], None)
        if target is None:
            tracer.absent.append(where)
            continue
        patch(module, path[1], _Proxy(target, wrapped(target, names, where)))

    validation = getattr(package, "validation", None)
    checks = [attr for attr in vars(validation) if attr.startswith(CHECK_PREFIX)] \
        if validation is not None else []
    if not checks:
        tracer.absent.append("validation._check_*")
    for attr in checks:
        fn = getattr(validation, attr)
        if callable(fn):
            patch(validation, attr, tracer._family(span_name(fn), fn))

    cli = getattr(package, "cli", None)
    commands = getattr(cli, "_COMMANDS", None)
    if isinstance(commands, dict) and all(
            isinstance(entry, tuple) and len(entry) == 2 for entry in commands.values()):
        original = dict(commands)
        undo.append((commands, None, original))
        for key, (resolve, run) in original.items():
            commands[key] = (resolve, tracer.wrap("cli.run", run))
    else:
        tracer.absent.append("cli._COMMANDS")
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if attr is None:
            owner.clear()
            owner.update(original)
        else:
            setattr(owner, attr, original)


def summarise(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children.  Also counts the spectral solves made inside brute-force
    probability calls, the denominator of ``oracle.spectral_reuse``.
    """
    n_names = len(tracer.names)
    name_id = np.frombuffer(tracer.name_id, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    self_time = duration - children
    calls = np.bincount(name_id, minlength=n_names)
    inclusive = np.bincount(name_id, weights=duration, minlength=n_names)
    own = np.bincount(name_id, weights=self_time, minlength=n_names)
    spans = {name: (int(calls[k]), float(inclusive[k]), float(own[k]))
             for k, name in enumerate(tracer.names)}

    spectral_in_brute = 0
    ids = tracer._ids
    if "oracle._spectral_data" in ids and "oracle.brute_force_probability" in ids:
        is_spectral = (name_id == ids["oracle._spectral_data"]) & has_parent
        parents = parent[is_spectral]
        spectral_in_brute = int(np.count_nonzero(
            name_id[parents] == ids["oracle.brute_force_probability"]))
    return {"spans": spans, "spectral_in_brute": spectral_in_brute,
            "n_spans": len(duration)}


def write_spans(tracer: Tracer, path) -> None:
    """Write the raw spans (times relative to the first span) as .npz."""
    start = np.frombuffer(tracer.start)
    origin = start.min() if len(start) else 0.0
    np.savez(path, names=np.array(tracer.names), name_id=np.frombuffer(tracer.name_id, np.intc),
             parent=np.frombuffer(tracer.parent, np.intc),
             call_id=np.frombuffer(tracer.call_id, np.intc),
             start=start - origin, end=np.frombuffer(tracer.end) - origin)
