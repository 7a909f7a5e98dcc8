"""Seeded input generators with their expected answers.

Everything here is plain standard-library Python and never imports
``repro``: the expected answers (header-phi classes, loop verdicts,
response kinds) come from how each input was built, so the benchmark's
correctness checks cannot inherit a defect from the program they check.

Sizes and kind counts are fixed per workload (stratified); the seed
only chooses names, constants, statement order and which variant of a
template is used.  That keeps the cost of one pass nearly the same on
every seed, so run-to-run spread measures the host and the program, not
the draw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# ----------------------------------------------------------------------
# classes of a header phi, as the paper names them
# ----------------------------------------------------------------------
LINEAR = "linear"
POLYNOMIAL = "polynomial"
GEOMETRIC = "geometric"
PERIODIC = "periodic"
MONOTONIC = "monotonic"
WRAPAROUND = "wrap-around"
BRANCH = "branch-dependent"
INVARIANT = "invariant"


def class_of(described: str) -> str:
    """The paper's class name of one ``Classification.describe()`` text."""
    for prefix, kind in (
        ("wraparound(", WRAPAROUND),
        ("periodic(", PERIODIC),
        ("monotonic(", MONOTONIC),
        ("branch-dependent(", BRANCH),
        ("invariant", INVARIANT),
    ):
        if described.startswith(prefix):
            return kind
    if described.startswith("(L") and described.endswith(")"):
        if "^h" in described:
            return GEOMETRIC
        # (loop, c0, c1[, c2 ...]): two coefficients is the linear triple
        return LINEAR if described.count(",") == 2 else POLYNOMIAL
    return "unknown"


def _log_spaced(low: int, high: int, count: int) -> List[int]:
    if count == 1:
        return [low]
    ratio = (high / low) ** (1.0 / (count - 1))
    return [int(round(low * ratio ** k)) for k in range(count)]


# ----------------------------------------------------------------------
# DSL loop programs (analyze-loops, serve-mixed, cli-cold)
# ----------------------------------------------------------------------
class LoopProgram:
    """One DSL program and the class each source variable's header phi has.

    ``expected`` maps (loop label, source variable) to a class name.
    """

    __slots__ = ("kind", "source", "expected")

    def __init__(self, kind: str, source: str, expected: Dict[Tuple[str, str], str]):
        self.kind = kind
        self.source = source
        self.expected = expected

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source,
            "expected": [[loop, var, cls] for (loop, var), cls in sorted(self.expected.items())],
        }


def mixed_class_loop(rng: random.Random, statements: int) -> LoopProgram:
    """One loop mixing every class, about ``statements`` body lines long.

    Every statement kind comes in equal numbers and only their order is
    drawn, so the cost of a loop of one size barely depends on the seed.
    Two conditionals keep the branch-dependent counter under any path cap.
    """
    rounds = max(1, (statements - 7) // 8)  # 8 lines per round of kinds
    kinds = ["a", "b", "g", "swap", "w", "x"] * rounds + ["if", "if"]
    rng.shuffle(kinds)
    body: List[str] = ["  B[w] = a"]  # reads w before `w = i`: the wrap-around use
    for index, kind in enumerate(kinds):
        if kind == "a":
            body.append(f"  a = a + {rng.randint(1, 4)}")
        elif kind == "b":
            body.append("  b = b + a")
        elif kind == "g":
            body.append(f"  g = g * 2 + {rng.randint(0, 2)}")
        elif kind == "swap":
            body.extend(["  t = p", "  p = q", "  q = t"])
        elif kind == "if":
            body.extend([f"  if A[i] > {rng.randint(0, 5)} then",
                         f"    c = c + {rng.randint(1, 3)}", "  endif"])
        elif kind == "w":
            body.append("  w = i")
        else:
            body.append(f"  x{index} = a * {rng.randint(2, 5)} + i")
    lines = ["a = 1", "b = 2", "c = 0", "w = n", "g = 1", "p = 1", "q = 2",
             "L1: for i = 1 to n do"] + body + ["endfor", "E[0] = a + b + c + g + p + q + w"]
    expected = {("L1", "i"): LINEAR, ("L1", "a"): LINEAR, ("L1", "b"): POLYNOMIAL,
                ("L1", "g"): GEOMETRIC, ("L1", "w"): WRAPAROUND, ("L1", "c"): BRANCH}
    if rounds % 2:  # an even number of p/q swaps is the identity
        expected[("L1", "p")] = PERIODIC
        expected[("L1", "q")] = PERIODIC
    return LoopProgram("mixed-class", "\n".join(lines), expected)


def branchy_counter(rng: random.Random, diamonds: int) -> LoopProgram:
    """A counter stepped by one of two constants in each of ``diamonds``
    if/else diamonds: 2**diamonds header-to-latch paths."""
    lines = ["c = 0", "L1: while c < n do"]
    for d in range(diamonds):
        low = rng.randint(1, 3) + d
        high = low + rng.randint(1, 4)
        lines += [f"  if A[c] > {d} then", f"    c = c + {low}", "  else",
                  f"    c = c + {high}", "  endif"]
    lines += ["endwhile", "B[0] = c"]
    return LoopProgram("branchy", "\n".join(lines), {("L1", "c"): BRANCH})


def triangular_nest(rng: random.Random, variant: int) -> LoopProgram:
    """Triangular / rectangular two-deep nests with a counted sum."""
    step = rng.randint(1, 3)
    if variant % 2 == 0:
        lines = ["s = 0", "L1: for i = 1 to n do", "  L2: for j = 1 to i do",
                 f"    s = s + {step}", "    A[i] = A[i] + B[j]", "  endfor",
                 "endfor", "E[0] = s"]
        # the inner trip count is i, so s grows quadratically in L1
        expected = {("L1", "i"): LINEAR, ("L2", "j"): LINEAR,
                    ("L1", "s"): POLYNOMIAL, ("L2", "s"): LINEAR}
    else:
        lines = ["k = 0", "L1: for i = 1 to n do", "  L2: for j = 1 to m do",
                 f"    k = k + {step}", "    C[k] = A[i] + B[j]", "  endfor",
                 "endfor", "E[0] = k"]
        expected = {("L1", "i"): LINEAR, ("L2", "j"): LINEAR,
                    ("L2", "k"): LINEAR}
    return LoopProgram("nested", "\n".join(lines), expected)


def deep_chain(rng: random.Random, depth: int) -> LoopProgram:
    """v_k = v_{k-1} + c_k: one SSA pass, ``depth`` passes classically."""
    lines = ["base = 0", "L1: for i = 1 to n do", f"  base = base + {rng.randint(1, 3)}",
             "  v0 = i + base"]
    for k in range(1, depth):
        lines.append(f"  v{k} = v{k - 1} + {rng.randint(1, 9)}")
    lines += [f"  A[v{depth - 1}] = i", "endfor"]
    return LoopProgram("deep-chain", "\n".join(lines),
                       {("L1", "i"): LINEAR, ("L1", "base"): LINEAR})


def dependence_kernel(rng: random.Random, kind: str) -> LoopProgram:
    """Loops whose dependence testing needs the extended classes."""
    if kind == "periodic":
        a, b, c = rng.sample(range(1, 9), 3)
        lines = [f"j = {a}", f"k = {b}", f"l = {c}", "L1: for it = 1 to n do",
                 "  A[2 * j] = A[2 * k] + 1", "  t = j", "  j = k", "  k = l",
                 "  l = t", "endfor"]
        expected = {("L1", "it"): LINEAR, ("L1", "j"): PERIODIC,
                    ("L1", "k"): PERIODIC, ("L1", "l"): PERIODIC}
    elif kind == "monotonic":
        # the step is the positive IV i: increasing, but by no constant
        lines = ["k = 0", "L1: for i = 1 to n do", f"  if A[i] > {rng.randint(0, 3)} then",
                 "    k = k + i", "    B[k] = A[i]", "  endif", "endfor"]
        expected = {("L1", "i"): LINEAR, ("L1", "k"): MONOTONIC}
    elif kind == "wrap-around":
        shift = rng.randint(1, 3)
        lines = ["iml = n", "L1: for i = 1 to n do", f"  A[i] = A[iml] + {shift}",
                 "  iml = i", "endfor"]
        expected = {("L1", "i"): LINEAR, ("L1", "iml"): WRAPAROUND}
    elif kind == "geometric":
        lines = ["g = 1", "L1: for i = 1 to n do", f"  g = g * {rng.randint(2, 4)} + 1",
                 "  A[g] = i", "endfor"]
        expected = {("L1", "i"): LINEAR, ("L1", "g"): GEOMETRIC}
    else:
        raise ValueError(kind)
    return LoopProgram(kind, "\n".join(lines), expected)


KERNELS = ("periodic", "monotonic", "wrap-around", "geometric")


def loop_set(seed: int) -> List[LoopProgram]:
    """The analyze-loops program set: fixed kind counts, seeded content."""
    rng = random.Random(seed)
    programs: List[LoopProgram] = []
    # three at the top size, so the tail quantile falls among them
    for size in _log_spaced(50, 800, 5) + [800, 800]:
        programs.append(mixed_class_loop(rng, size))
    for diamonds in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5):  # 2..32 paths; 32 > MAX_PATHS
        programs.append(branchy_counter(rng, diamonds))
    for variant in range(6):
        programs.append(triangular_nest(rng, variant))
    for depth in _log_spaced(50, 400, 4):
        programs.append(deep_chain(rng, depth))
    # the small kernels are over half the set, so the median latency is
    # one of them on every seed
    for kind in KERNELS:
        for _ in range(7):
            programs.append(dependence_kernel(rng, kind))
    rng.shuffle(programs)
    return programs


def wolfe_program(rng: random.Random) -> LoopProgram:
    """A seeded variant of the paper's variable zoo (Figures 1-4).

    A linear IV ``i``, a second-order sum ``s``, a copy ``w`` of the IV
    read one iteration late (wrap-around) and ``t`` that reads it.
    """
    init = rng.randint(0, 9)
    step = rng.randint(1, 4)
    start_w = rng.randint(50, 150)
    lines = [f"i = {init}", "s = 0", f"w = {start_w}", "L1: while i < n do",
             "  t = w + 1", "  w = i", "  s = s + i", "  A[i] = A[i] + s",
             "  B[i] = t", f"  i = i + {step}", "endwhile"]
    expected = {("L1", "i"): LINEAR, ("L1", "s"): POLYNOMIAL,
                ("L1", "w"): WRAPAROUND}
    return LoopProgram("wolfe", "\n".join(lines), expected)


def service_program(rng: random.Random) -> LoopProgram:
    """A small unique DSL program for one service request."""
    pick = rng.randrange(4)
    if pick == 0:
        return wolfe_program(rng)
    if pick == 1:
        return branchy_counter(rng, rng.randint(1, 2))
    return dependence_kernel(rng, KERNELS[rng.randrange(len(KERNELS))])


# ----------------------------------------------------------------------
# Python corpus (pylint-corpus, serve-mixed, cli-cold)
# ----------------------------------------------------------------------
_WORDS = ("item", "record", "value", "entry", "node", "batch", "token",
          "frame", "state", "table", "index", "score", "group", "field")


#: lines per ``def`` (the 2.5th, 7.5th, ... 97.5th percentiles) in the
#: 1,143 functions of ``src/repro`` when the benchmark was written; the
#: ordinary functions' lengths are sampled from these, so the corpus has
#: ordinary code's mix of one-liners and long bodies (a function is never
#: shorter than its signature, docstring, one statement and return)
DEF_LINES = (2, 2, 2, 2, 3, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 26, 33, 45, 74)
#: ``def``s per module, the same percentiles over the 122 modules of
#: ``src/repro``: most modules are small and a few hold 30 to 50 functions
MODULE_DEFS = (0, 0, 0, 1, 2, 2, 3, 3, 4, 5, 6, 6, 8, 9, 10, 13, 18, 20, 31, 50)


def _name(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}_{rng.choice(_WORDS)}{rng.randint(0, 99)}"


def _ordinary_function(rng: random.Random, indent: str, length: int,
                       method: bool = False) -> List[str]:
    """An ordinary function outside pyfront's subset (calls, typing,
    comprehensions, try/with, dicts, f-strings)."""
    name = _name(rng)
    params = ["self"] if method else []
    params += [f"{_name(rng)}: {rng.choice(('int', 'str', 'Dict[str, int]', 'Optional[str]', 'List[str]'))}"
               for _ in range(rng.randint(1, 3))]
    args = [p.split(":")[0] for p in params if p != "self"]
    lines = [f"{indent}def {name}({', '.join(params)}) -> {rng.choice(('int', 'str', 'bool', 'Dict[str, Any]'))}:",
             f'{indent}    """{rng.choice(_WORDS).title()} the {rng.choice(_WORDS)} for {args[0]}."""']
    body = indent + "    "
    local = [args[0]]
    while len(lines) < length or len(local) == 1:  # one statement pyfront rejects
        pick = rng.randrange(8)
        target = _name(rng)
        if pick == 0:
            lines.append(f"{body}{target} = [str(x).strip() for x in {rng.choice(local)} if x]")
        elif pick == 1:
            lines.append(f"{body}{target} = {{k: len(str(k)) for k in {rng.choice(local)}}}")
        elif pick == 2:
            lines += [f"{body}try:",
                      f"{body}    {target} = int({rng.choice(local)}) + {rng.randint(1, 9)}",
                      f"{body}except (TypeError, ValueError) as error:",
                      f"{body}    raise RuntimeError(f\"bad {{error}}\") from None"]
        elif pick == 3:
            lines += [f"{body}with open(str({rng.choice(local)})) as handle:",
                      f"{body}    {target} = handle.read().splitlines()"]
        elif pick == 4:
            lines += [f"{body}if {rng.choice(local)} is None:",
                      f"{body}    return {rng.choice(('0', 'None', 'False', repr(''), '{}'))}"]
            continue
        elif pick == 5:
            lines.append(f"{body}{target} = sorted({rng.choice(local)}, key=lambda v: (len(str(v)), v))")
        elif pick == 6:
            call = "self." + _name(rng) if method else "print"
            lines.append(f"{body}{target} = {call}(f\"{{{rng.choice(local)}!r}} -> {rng.randint(0, 99)}\")")
        else:
            lines += [f"{body}for key, val in dict({rng.choice(local)}).items():",
                      f"{body}    {target} = {{**{{key: val}}, 'n': {rng.randint(0, 9)}}}"]
        local.append(target)
    lines.append(f"{body}return {rng.choice(local)}")
    return lines


def _in_subset_function(rng: random.Random, typed: bool) -> Tuple[List[str], List[bool]]:
    """A function inside pyfront's subset, with its loops' DOALL verdicts
    in report order (outer loops first)."""
    name = f"kernel_{_name(rng)}"
    ann_list = ": List[int]" if typed else ""
    ann_int = ": int" if typed else ""
    ret = " -> int" if typed else ""
    pick = rng.randrange(5)
    k = rng.randint(1, 9)
    if pick == 0:
        lines = [f"def {name}(a{ann_list}, b{ann_list}, n{ann_int}){ret}:",
                 "    for i in range(n):", f"        a[i] = b[i] * {k} + 1", "    return 0"]
        verdicts = [True]
    elif pick == 1:
        lines = [f"def {name}(a{ann_list}, n{ann_int}){ret}:",
                 "    for i in range(1, n):", f"        a[i] = a[i - 1] + {k}", "    return 0"]
        verdicts = [False]
    elif pick == 2:
        lines = [f"def {name}(a{ann_list}, n{ann_int}){ret}:", "    i = 0",
                 "    while i < n:", f"        a[i] = {k}", f"        i += {rng.randint(1, 3)}",
                 "    return i"]
        verdicts = [True]
    elif pick == 3:
        lines = [f"def {name}(a{ann_list}, b{ann_list}, n{ann_int}){ret}:",
                 "    for i in range(n):", "        for j in range(i):",
                 "            a[i] = a[i] + b[j]", "    return 0"]
        verdicts = [True, False]
    else:
        lines = [f"def {name}(a{ann_list}, n{ann_int}){ret}:", "    s = 0",
                 "    for i in range(0, n, 2):", f"        s = s + a[i] * {k}",
                 "    return s"]
        verdicts = [True]
    return lines, verdicts


class PyModule:
    """One generated Python module.

    ``functions`` is the number of ``def``s; ``kernels`` maps each
    in-subset function's qualname to (typed, DOALL verdicts).
    """

    __slots__ = ("name", "source", "functions", "kernels")

    def __init__(self, name: str, source: str, functions: int,
                 kernels: Dict[str, Tuple[bool, List[bool]]]):
        self.name = name
        self.source = source
        self.functions = functions
        self.kernels = kernels

    def to_json(self) -> dict:
        return {"name": self.name, "source": self.source, "functions": self.functions,
                "kernels": {q: [typed, verdicts] for q, (typed, verdicts) in self.kernels.items()}}

    def loop_headers(self) -> Dict[str, List[str]]:
        """Each kernel's loop header labels (``L`` and the line of its
        ``for``/``while``), in line order, as the analysis names them."""
        out: Dict[str, List[str]] = {}
        current = None
        for number, line in enumerate(self.source.splitlines(), 1):
            if line.startswith("def "):
                current = line[4:].split("(")[0]
                if current in self.kernels:
                    out[current] = []
            elif line and not line[0].isspace():
                current = None
            elif current in out and line.lstrip().startswith(("for ", "while ")):
                out[current].append(f"L{number}")
        return out


_HEADER = ('"""Generated module {name}."""\n\n'
           "import os\nfrom typing import Any, Dict, List, Optional\n\n")


def python_module(rng: random.Random, name: str, functions: int,
                  kernels: int, typed_kernels: int) -> PyModule:
    """``functions`` defs: ``kernels`` in-subset (``typed_kernels`` of them
    annotated with ``typing`` names), the rest ordinary code, some of it
    methods of a class.

    The ordinary functions' lengths are ``DEF_LINES`` at evenly spaced
    percentiles, shuffled, so a module's size follows from its function
    count and not from the seed.
    """
    ordinary = functions - kernels
    sample = [DEF_LINES[int((k + 0.5) * len(DEF_LINES) / ordinary)] for k in range(ordinary)]
    rng.shuffle(sample)
    lengths = iter(sample)
    kinds = ["kernel"] * (kernels - typed_kernels) + ["typed"] * typed_kernels
    kinds += ["plain"] * ordinary
    rng.shuffle(kinds)
    chunks: List[str] = []
    expected: Dict[str, Tuple[bool, List[bool]]] = {}
    count = 0
    index = 0
    while index < len(kinds):
        kind = kinds[index]
        if kind == "plain" and index + 2 < len(kinds) and kinds[index + 1] == "plain" \
                and kinds[index + 2] == "plain" and rng.random() < 0.5:
            cls = f"{rng.choice(_WORDS).title()}{rng.choice(_WORDS).title()}{index}"
            body = [f"class {cls}:", f'    """A {rng.choice(_WORDS)} holder."""', ""]
            for _ in range(3):
                body += _ordinary_function(rng, "    ", next(lengths), method=True) + [""]
            chunks.append("\n".join(body))
            count += 3
            index += 3
            continue
        if kind == "plain":
            chunks.append("\n".join(_ordinary_function(rng, "", next(lengths))))
        else:
            lines, verdicts = _in_subset_function(rng, typed=kind == "typed")
            qualname = lines[0].split("(")[0][4:]
            expected[qualname] = (kind == "typed", verdicts)
            chunks.append("\n".join(lines))
        count += 1
        index += 1
    source = _HEADER.format(name=name) + "\n\n\n".join(chunks) + "\n"
    return PyModule(name, source, count, expected)


def python_corpus(seed: int, modules: int = 100) -> List[PyModule]:
    """About 965 functions in ``modules`` modules, ~7% in-subset.

    Module sizes are ``MODULE_DEFS``, each repeated as often, shuffled;
    in-subset kernels go one to each of half the modules and a typed one
    to every fifth, in modules grown to hold them where they are smaller.
    """
    rng = random.Random(seed)
    sizes = [MODULE_DEFS[k * len(MODULE_DEFS) // modules] for k in range(modules)]
    rng.shuffle(sizes)
    out = []
    for k, size in enumerate(sizes):
        kernels = 1 if k % 2 == 0 else 0
        typed = 1 if k % 5 == 0 else 0
        out.append(python_module(rng, f"mod_{k:03d}", max(size, kernels + typed),
                                 kernels + typed, typed))
    return out


# ----------------------------------------------------------------------
# service request mix (serve-mixed)
# ----------------------------------------------------------------------
#: one cycle of the closed-loop mix, cycled per connection.  It is the
#: documented mix of ``benchmarks/loadtest.py`` slot for slot -- 70% good
#: requests, 15% bad sources, 10% oversized frames, 5% batches -- with
#: its good slots split 9 misses / 3 hits / 2 Python modules and its
#: oversized frames replaced by malformed payloads (see README.md)
MIX = ("miss", "miss", "bad", "hit", "miss", "malformed", "python", "miss",
       "bad", "hit", "batch", "miss", "miss", "malformed", "hit", "miss",
       "python", "bad", "miss", "miss")

#: a DSL source the frontend rejects, as ``benchmarks/loadtest.py`` sends
BAD_SOURCE = "L1: while i <\n"

#: malformed requests and the error code the protocol specifies for each
MALFORMED = (
    ({"op": "analyze"}, "malformed-request"),
    ({"op": "analyze", "source": "i = 0", "options": "fast"}, "malformed-request"),
    ({"op": "analyze", "source": "i = 0", "options": {"language": "cobol"}}, "malformed-request"),
    ({"op": "analyze", "source": "i = 0", "options": {"deadline_s": -1}}, "malformed-request"),
    ({"op": "frobnicate"}, "malformed-request"),
)


def _unique(program: LoopProgram, stream: int, serial: int) -> LoopProgram:
    """The program with a trailing store no other request has, so it
    misses the service's result cache."""
    return LoopProgram(program.kind, f"{program.source}\nR[{stream}] = {serial}",
                       program.expected)


def request_stream(seed: int, stream: int):
    """Yield (kind, payload, expectation) forever, deterministically.

    Each connection has its own ``stream``, and a hit repeats a program
    its own connection already had answered, so which requests hit the
    cache does not depend on how the connections interleave.
    ``expectation`` holds the expected classes of each DSL program, the
    expected function count and kernels of a Python module, or the error
    code of a bad source or a malformed request.
    """
    rng = random.Random(seed * 1009 + stream)
    recent: List[Tuple[dict, LoopProgram]] = []
    options = {"ranges": True, "invariants": True}
    index = 0
    while True:
        kind = MIX[(stream + index) % len(MIX)]  # offset per connection, as loadtest.py
        index += 1
        if kind == "hit" and recent:
            payload, program = recent[rng.randrange(len(recent))]
            yield kind, payload, [program]
        elif kind in ("miss", "hit"):
            program = _unique(service_program(rng), stream, index)
            payload = {"op": "analyze", "source": program.source, "options": options}
            recent = (recent + [(payload, program)])[-16:]
            yield "miss", payload, [program]
        elif kind == "batch":
            programs = [_unique(service_program(rng), stream, index * 4 + k) for k in range(3)]
            payload = {"op": "analyze", "options": options,
                       "programs": [{"name": f"p{k}", "source": p.source}
                                    for k, p in enumerate(programs)]}
            yield kind, payload, programs
        elif kind == "python":
            module = python_module(rng, f"svc_{index}", rng.randint(4, 8), 1, 0)
            payload = {"op": "analyze", "source": module.source,
                       "options": dict(options, language="python")}
            yield kind, payload, module
        elif kind == "bad":
            # unique, like a miss, so no response depends on the other connection
            payload = {"op": "analyze", "source": f"R[{stream}] = {index}\n{BAD_SOURCE}",
                       "options": options}
            yield kind, payload, "frontend-error"
        else:
            payload, code = MALFORMED[rng.randrange(len(MALFORMED))]
            yield kind, payload, code



# ----------------------------------------------------------------------
# checks against the answers above
# ----------------------------------------------------------------------
def check_classes(got: Dict[Tuple[str, str], str], expected, what: str) -> List[str]:
    """``got`` maps (loop, variable) to the header phi's describe() text;
    ``expected`` lists (loop, variable, class) as built."""
    problems = []
    for loop, var, cls in expected:
        described = got.get((loop, var), "missing")
        if class_of(described) != cls:
            problems.append(f"{what}: {var} at {loop} is {described!r}, built {cls}")
    return problems


def check_corpus_payload(payload: dict, functions: int, kernels: dict,
                         facts: dict, what: str) -> List[str]:
    """Check one ``render_corpus_json`` document against its module.

    Every def must be accounted for, and every in-subset kernel must
    lower and carry the DOALL verdicts it was built with -- except that a
    typed kernel, which pyfront's subset does not cover today, may fail
    to lower: that is a false rejection, counted in ``facts``.
    """
    problems = []
    if payload["functions"] != functions:
        problems.append(f"{what}: {payload['functions']} defs reported, {functions} written")
    verdicts: Dict[str, List[bool]] = {}
    for row in payload["loops"]:
        verdicts.setdefault(row["function"], []).append(row["parallel"])
    for qualname, (typed, expected) in kernels.items():
        if qualname not in verdicts and typed:
            facts["false_rejections"] += 1
        elif qualname not in verdicts:
            problems.append(f"{what}:{qualname}: in-subset function did not lower")
        elif verdicts[qualname] != expected:
            problems.append(f"{what}:{qualname}: DOALL verdicts {verdicts[qualname]}, "
                            f"built as {expected}")
    facts["functions"] += payload["functions"]
    facts["lowered"] += payload["lowered"]
    return problems
