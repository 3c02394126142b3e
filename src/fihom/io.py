"""Line-oriented text serialization of FI-modules and FI-complexes.

The format is human-diffable and canonical: fixed field order, reduced
fractions ("a/b", integers bare), matrices as one whitespace-separated
row per line.  parse(serialize(x)) reproduces x exactly, and identical
objects serialize to identical bytes.  Lines starting with '#' are
comments and survive nowhere (they are for generator notices).
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import FIComplex, validate_complex
from .fimodule import FIModule, FIMorphism, validate
from .linalg import Matrix, QQ, RINGS, ZZ, _coerce


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line locus."""

    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class ValidationError(ValueError):
    """Input parsed but the object violates its relations."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


def _matrix_lines(M):
    if M.ncols == 0:
        return []  # no entries: rows are implied by the dims header
    out = []
    for i in range(M.nrows):
        row = M.rows[i]
        out.append(" ".join(str(row.get(j, 0)) for j in range(M.ncols)))
    return out


def serialize_module(V: FIModule) -> str:
    lines = ["fimodule"]
    if V.name:
        lines.append("name %s" % V.name)
    lines.append("ring %s" % V.ring)
    lines.append("truncation %d" % V.truncation)
    lines.append("dims %s" % " ".join(str(d) for d in V.dims))
    for n in range(V.truncation):
        lines.append("iota %d" % n)
        lines.extend(_matrix_lines(V.iota[n]))
    for n in range(V.truncation + 1):
        for i in range(1, n):
            lines.append("trans %d %d" % (n, i))
            lines.extend(_matrix_lines(V.transposition(n, i)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_complex(W: FIComplex) -> str:
    lines = ["ficomplex",
             "ring %s" % W.ring,
             "truncation %d" % W.truncation,
             "qmin %d" % W.q_min,
             "modules %d" % len(W.modules)]
    for t, V in enumerate(W.modules):
        lines.append("module %d" % (W.q_min + t))
        body = serialize_module(V).rstrip("\n").split("\n")
        lines.extend(body[1:-1])  # strip the 'fimodule' and 'end' markers
        lines.append("endmodule")
    for t, d in enumerate(W.diffs):
        q = W.q_min + t + 1
        for n in range(W.truncation + 1):
            lines.append("diff %d level %d" % (q, n))
            lines.extend(_matrix_lines(d.levels[n]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize(obj) -> str:
    if isinstance(obj, FIModule):
        return serialize_module(obj)
    if isinstance(obj, FIComplex):
        return serialize_complex(obj)
    raise TypeError("cannot serialize %r" % type(obj).__name__)


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    def __init__(self, text):
        self.raw = text.split("\n")
        self.pos = 0

    def peek(self):
        while self.pos < len(self.raw):
            s = self.raw[self.pos].strip()
            if s and not s.startswith("#"):
                return s
            self.pos += 1
        return None

    def next(self):
        s = self.peek()
        if s is None:
            raise ParseError(len(self.raw), "unexpected end of input")
        self.pos += 1
        return s

    def block(self, count):
        """(line number, text) of each of the next `count` content lines,
        as `next` would read them, drawn one at a time by one loop."""
        raw, pos, end = self.raw, self.pos, len(self.raw)
        while count:
            if pos == end:
                raise ParseError(end, "unexpected end of input")
            s = raw[pos].strip()
            pos += 1
            if s and s[0] != "#":
                count -= 1
                yield pos, s
        self.pos = pos

    @property
    def line_no(self):
        return self.pos + 1


def _q_entry(tok):
    """A Q token as an int when integral, else as a Fraction."""
    try:
        return int(tok)
    except ValueError:
        return _coerce(QQ, Fraction(tok))


def _read_matrix(cur, ring, nrows, ncols, what):
    """nrows lines of ncols entries, each converted once into sparse rows.

    A row of one-character entries that are all `0` but at most one `1`,
    as every row of a permutation matrix is, is read by string methods;
    every other row token by token."""
    if ncols == 0:
        return Matrix.zeros(ring, nrows, 0)
    conv = int if ring == ZZ else _q_entry
    width, gaps = 2 * ncols - 1, " " * (ncols - 1)
    rows = []
    for line_no, line in cur.block(nrows):
        if len(line) == width and line[1::2] == gaps:
            chars = line[::2]
            zeros = chars.count("0")
            if zeros == ncols:
                rows.append({})
                continue
            if zeros == ncols - 1 and (j := chars.find("1")) >= 0:
                rows.append({j: 1})
                continue
        rows.append(_read_row(line, line_no, ring, conv, ncols, what))
    return Matrix(ring, nrows, ncols, rows)


def _read_row(line, line_no, ring, conv, ncols, what):
    """The sparse row of ncols whitespace-separated entries, token by token."""
    toks = line.split()
    if len(toks) != ncols:
        raise ParseError(line_no,
                         "%s: expected %d entries, got %d" % (what, ncols, len(toks)))
    row = {}
    for j, tok in enumerate(toks):
        if tok == "0":
            continue  # the common zero, unparsed; other spellings convert
        try:
            x = conv(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, "bad %s entry %r" % (ring, tok))
        if x:
            row[j] = x
    return row


def _expect(cur, key):
    """The tokens after `key` on the next line, whose first token it must be."""
    line = cur.next()
    toks = line.split()
    if toks[0] != key:
        raise ParseError(cur.line_no - 1, "expected %r, got %r" % (key, line))
    return toks[1:]


def _line(cur, want):
    """Consume the next line, which must read `want` exactly; return it."""
    line = cur.next()
    if line != want:
        raise ParseError(cur.line_no - 1, "expected %r, got %r" % (want, line))
    return line


def _value(cur, key, convert=str, bad=None):
    """convert(value) of the next line, `key value`; ParseError(bad) if
    that raises ValueError."""
    toks = _expect(cur, key)
    if not toks:
        raise ParseError(cur.line_no - 1, "%r needs a value" % key)
    try:
        return convert(toks[0])
    except ValueError:
        raise ParseError(cur.line_no - 1, bad)


def _parse_module_body(cur, terminator):
    """Fields of one module, from 'name'/'ring' until the terminator line."""
    name = ""
    if (cur.peek() or "").startswith("name "):
        name = cur.next()[5:].strip()
    ring = _value(cur, "ring")
    if ring not in RINGS:
        raise ParseError(cur.line_no - 1, "unknown ring %r" % ring)
    N = _value(cur, "truncation", int, "bad truncation")
    if N < 0:
        raise ParseError(cur.line_no - 1, "negative truncation")
    try:
        dims = tuple(int(t) for t in _expect(cur, "dims"))
    except ValueError:
        raise ParseError(cur.line_no - 1, "bad dims entry")
    if any(d < 0 for d in dims):
        raise ParseError(cur.line_no - 1, "negative dims entry")
    if len(dims) != N + 1:
        raise ParseError(cur.line_no - 1,
                         "dims has %d entries, truncation %d needs %d"
                         % (len(dims), N, N + 1))
    iotas = []
    for n in range(N):
        iotas.append(_read_matrix(cur, ring, dims[n + 1], dims[n],
                                  _line(cur, "iota %d" % n)))
    trans = []
    for n in range(N + 1):
        mats = []
        for i in range(1, n):
            mats.append(_read_matrix(cur, ring, dims[n], dims[n],
                                     _line(cur, "trans %d %d" % (n, i))))
        trans.append(tuple(mats))
    _line(cur, terminator)
    return FIModule(ring, N, dims, tuple(iotas), tuple(trans), name=name)


def parse_module(text) -> FIModule:
    return _module_from(_Cursor(text))


def _module_from(cur):
    """The module read by `cur` from its 'fimodule' header line on."""
    _expect(cur, "fimodule")
    V = _parse_module_body(cur, "end")
    bad = validate(V)
    if bad:
        raise ValidationError(bad)
    return V


def parse_complex(text) -> FIComplex:
    return _complex_from(_Cursor(text))


def _complex_from(cur):
    """The complex read by `cur` from its 'ficomplex' header line on."""
    _expect(cur, "ficomplex")
    ring = _value(cur, "ring")
    if ring not in RINGS:
        raise ParseError(cur.line_no - 1, "unknown ring %r" % ring)
    N, q_min, count = (_value(cur, key, int, "bad integer field")
                       for key in ("truncation", "qmin", "modules"))
    if count < 1:
        raise ParseError(cur.line_no - 1, "need at least one module")
    modules = []
    for t in range(count):
        _line(cur, "module %d" % (q_min + t))
        V = _parse_module_body(cur, "endmodule")
        if V.ring != ring or V.truncation != N:
            raise ParseError(cur.line_no - 1,
                             "module %d does not match complex header" % (q_min + t))
        modules.append(V)
    diffs = []
    for t in range(count - 1):
        q = q_min + t + 1
        levels = []
        for n in range(N + 1):
            levels.append(_read_matrix(cur, ring, modules[t].dims[n],
                                       modules[t + 1].dims[n],
                                       _line(cur, "diff %d level %d" % (q, n))))
        diffs.append(FIMorphism(modules[t + 1], modules[t], tuple(levels)))
    _line(cur, "end")
    try:
        W = FIComplex(ring, N, q_min, tuple(modules), tuple(diffs))
    except ValueError as e:
        raise ValidationError([str(e)])
    bad = validate_complex(W)
    if bad:
        raise ValidationError(bad)
    return W


def parse(source) -> object:
    """Parse a module or complex from a path, file object, or text."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
    cur = _Cursor(text)
    head = cur.peek()
    if head == "fimodule":
        return _module_from(cur)
    if head == "ficomplex":
        return _complex_from(cur)
    raise ParseError(cur.line_no, "expected 'fimodule' or 'ficomplex' header")
