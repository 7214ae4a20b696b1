"""Problem-file front end: a small block-structured key-value format.

Example:

    ring {
      vars = X, Y
      char = 0
    }
    matrix {
      row = X^3, X^2*Y^2, X*Y^3, Y^5, 0, 0, 0
      row = 0, 0, X^3, 0, X^2*Y^2, X*Y^4, Y^5
    }
    candidates {
      col = X*Y^4, 0
    }
    factors {
      ideal = X, Y^2
    }
    options {
      lmax = 10
      window = 2
      nmax = 4
      deadline = 300
    }

Polynomial entries use the expression grammar and are separated by
commas.  `#` starts a comment.  Every block is optional except matrix.
"""

from .closures import ClosureOptions
from .context import RingContext
from .errors import InputError
from .groebner import SubmoduleData
from .poly import PowerBudget, parse_poly
from .rees import ModuleEmbedding


class ProblemFile:
    """A parsed problem file: its ring, the matrix rows, candidate columns
    and factor ideals as entry strings, and the options block.  The
    entries are parsed when asked for, and the powers of all of them
    share one PowerBudget."""

    def __init__(self, ctx, rows, candidates=None, factors=None,
                 options=None):
        self.ctx = ctx
        self.rows = rows
        self.candidates = [] if candidates is None else candidates
        self.factors = [] if factors is None else factors
        self.options = {} if options is None else options
        self._budget = PowerBudget()

    def _parse(self, entry):
        return parse_poly(entry, self.ctx, self._budget)

    def embedding(self):
        parsed = [[self._parse(e) for e in row] for row in self.rows]
        return ModuleEmbedding.from_matrix(self.ctx, parsed)

    def candidate_columns(self):
        rank = len(self.rows)
        cols = []
        for col in self.candidates:
            if len(col) != rank:
                raise InputError(
                    f"candidate column of length {len(col)}, expected {rank}")
            cols.append(tuple(map(self._parse, col)))
        return cols

    def factor_ideals(self):
        return [SubmoduleData.ideal(self.ctx, list(map(self._parse, gens)))
                for gens in self.factors]

    def closure_options(self):
        return ClosureOptions(**{field: self.options[key]
                                 for key, field in _CLOSURE_FIELDS.items()
                                 if key in self.options})


# The blocks that list entries, with the key each line uses.
_LIST_BLOCKS = {"matrix": "row", "candidates": "col", "factors": "ideal"}
_INT_OPTIONS = ("lmax", "window", "nmax", "smax")
_CLOSURE_FIELDS = {"lmax": "l_max", "window": "window", "smax": "s_max",
                   "deadline": "deadline_seconds"}


def _parse_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            if current is not None:
                raise InputError(f"line {lineno}: nested blocks not allowed")
            name = line[:-1].strip()
            if not name.isidentifier():
                raise InputError(f"line {lineno}: bad block name {name!r}")
            current = (name, [])
            continue
        if line == "}":
            if current is None:
                raise InputError(f"line {lineno}: stray closing brace")
            blocks.append(current)
            current = None
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if current is None:
            raise InputError(f"line {lineno}: {key!r} outside any block")
        current[1].append((key, value, lineno))
    if current is not None:
        raise InputError(f"unclosed block {current[0]!r}")
    return blocks


def _split_entries(value):
    return [e.strip() for e in value.split(",")]


def _number(convert, key, value, lineno):
    try:
        return convert(value)
    except ValueError:
        raise InputError(
            f"line {lineno}: {key} needs a number, got {value!r}") from None


def parse_problem(text, char_override=None):
    blocks = _parse_blocks(text)
    base_vars = ("X", "Y")
    char = 0
    lists = {name: [] for name in _LIST_BLOCKS}
    options = {}
    seen = set()
    for name, items in blocks:
        if name in seen and name not in ("factors",):
            raise InputError(f"duplicate block {name!r}")
        seen.add(name)
        if name == "ring":
            for key, value, lineno in items:
                if key == "vars":
                    base_vars = tuple(_split_entries(value))
                elif key == "char":
                    char = _number(int, key, value, lineno)
                else:
                    raise InputError(f"line {lineno}: unknown ring key {key!r}")
        elif name in lists:
            expected = _LIST_BLOCKS[name]
            for key, value, lineno in items:
                if key != expected:
                    raise InputError(
                        f"line {lineno}: expected {expected} entries")
                lists[name].append(_split_entries(value))
        elif name == "options":
            for key, value, lineno in items:
                if key in _INT_OPTIONS:
                    options[key] = _number(int, key, value, lineno)
                elif key == "deadline":
                    options[key] = _number(float, key, value, lineno)
                else:
                    raise InputError(f"line {lineno}: unknown option {key!r}")
        else:
            raise InputError(f"unknown block {name!r}")
    rows = lists["matrix"]
    if not rows:
        raise InputError("problem file has no matrix block")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("matrix rows have unequal lengths")
    if char_override is not None:
        char = char_override
    ctx = RingContext(characteristic=char, base_vars=base_vars)
    return ProblemFile(ctx, rows, lists["candidates"], lists["factors"],
                       options)
