"""Prefix-substitution classes over the binary Cantor set.

The space X is the set of infinite binary sequences; `B_w` denotes the
ball of sequences starting with the finite word w.  A basic partial map
sends `B_w1 -> B_w2` by replacing the prefix w1 with w2, and elements
here are classes of finite disjoint unions of such maps, up to
precomposition with a prefix substitution of the domain.  Each class has
a unique canonical representative: a reduced table over domain X whose
domain words form a complete prefix code and whose image words form an
antichain, none a prefix of another.  Full-support vertices built from
these classes generate the cubical complex on which Thompson's group V
acts.

Tables are tuples of (domain word, image word) pairs, sorted by domain
word; the reduced form merges any sibling pair (d0 -> g0), (d1 -> g1)
into (d -> g) until no merge applies.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import InitVar, dataclass

from .core import (
    DomainMismatch,
    ExpansionSystem,
    InputError,
    NotABijection,
    OverlappingSupports,
    Vertex,
    _vertex_unchecked,
    ascend,
    cached_field,
)


class IncompleteDomainCode(InputError):
    pass


class OverlappingImages(InputError):
    pass


# -- words ----------------------------------------------------------------


def check_word(w):
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise InputError(f"not a binary word: {w!r}")
    return w


def _nested_pair(words):
    """The first adjacent pair (a, b) of the sorted words with a a prefix
    of b, or None.  A word's extensions follow it directly in sorted
    order, so any nested pair shows up, and so does a repeated word."""
    ws = sorted(words)
    return next(
        ((a, b) for a, b in zip(ws, ws[1:]) if b.startswith(a)), None
    )


def _sorted_antichain(words):
    """The words sorted, or None if one is nested in another or
    repeated: `_nested_pair`'s adjacent test, run in C.  It is the one
    overlap sweep of `is_complete_code`, `BallRegion.all_disjoint` and
    `_disjoint_union`."""
    ws = sorted(words)
    if any(map(str.startswith, ws[1:], ws)):
        return None
    return ws


def is_complete_code(words):
    """True iff the balls named by `words` partition the whole space.
    No word may be nested in another (`_sorted_antichain`), and the
    balls' measures must sum to one."""
    ws = _sorted_antichain(words)
    if ws is None:
        return False
    top = max(map(len, ws), default=0)
    return sum(1 << (top - len(w)) for w in ws) == 1 << top


def _normalize_words(words):
    """Reduced antichain naming the union of the given balls.

    In sorted order a word follows every prefix of it, so one pass with a
    stack suffices: a word nested under the last kept word is dropped, and
    sibling pairs x0, x1 on top of the stack merge into x (repeatedly, as
    the merged word may complete another pair).
    """
    stack = []
    for w in sorted(words):
        if stack and w.startswith(stack[-1]):
            continue
        stack.append(w)
        while (
            len(stack) >= 2
            and stack[-2][-1:] == "0"
            and stack[-1][-1:] == "1"
            and stack[-2][:-1] == stack[-1][:-1]
        ):
            stack.pop()
            stack[-1] = stack[-1][:-1]
    return tuple(stack)


@dataclass(unsafe_hash=True, slots=True)
class BallRegion:
    """A region of the Cantor set: a reduced antichain of ball names."""

    words: tuple

    @classmethod
    def make(cls, words):
        return cls(_normalize_words(words))

    @staticmethod
    def all_disjoint(regions):
        """True iff the regions are pairwise disjoint, in one sorted sweep.

        Each region's own words are an antichain, so a nested pair always
        spans two regions.  The sweep is `_sorted_antichain`.
        """
        words = [w for r in regions for w in r.words]
        return _sorted_antichain(words) is not None


# -- tables ---------------------------------------------------------------


def _merge_sorted(entries):
    """Merge sibling (d0->g0),(d1->g1) pairs in a domain-sorted table: an
    entry merges with the top of the stack while that is its sibling.
    An entry that merges nothing is kept as the tuple it came in."""
    stack = []
    for entry in entries:
        d, g = entry
        while (
            stack
            and d[-1:] == g[-1:] == "1"
            and stack[-1] == (d[:-1] + "0", g[:-1] + "0")
        ):
            stack.pop()
            d, g = d[:-1], g[:-1]
            entry = (d, g)
        stack.append(entry)
    return tuple(stack)


def reduce_table(entries):
    """Validate a raw table and return its unique reduced, sorted form.

    The domain words must form a complete prefix code (the table is total
    on X) and no image word may be a prefix of another.
    """
    entries = tuple((check_word(d), check_word(g)) for d, g in entries)
    if not is_complete_code([d for d, _ in entries]):
        raise IncompleteDomainCode(
            "domain words do not partition the space"
        )
    pair = _nested_pair(g for _, g in entries)
    if pair:
        a, b = pair
        raise OverlappingImages(f"words {a!r} and {b!r} are nested")
    return _merge_sorted(sorted(entries))


def invert_entries(entries):
    return tuple(sorted((g, d) for d, g in entries))


def compose_entries(outer, inner):
    """Table of outer∘inner, composing partial prefix maps on overlaps.

    The outer domain words are a sorted antichain: the one that is a
    prefix of an inner image b, if any, is the last word at or before b,
    and those that extend b are the run that follows.

    The output needs no sort.  Each entry (a, b) yields words that
    extend a, in order: a itself, or a followed by the sorted run's
    suffixes.  The inner domains are a sorted antichain, so for a
    before a' they differ at a place both reach, and every extension
    of a sorts before every extension of a'."""
    domains = [c for c, _ in outer]
    out = []
    for a, b in inner:
        i = bisect_right(domains, b)
        if i and b.startswith(domains[i - 1]):
            c, d = outer[i - 1]
            out.append((a, d + b[len(c):]))
            continue
        while i < len(domains) and domains[i].startswith(b):
            c, d = outer[i]
            out.append((a + c[len(b):], d))
            i += 1
    return _merge_sorted(out)


@dataclass(slots=True)
class VElement:
    """Canonical class of a finite prefix-map with domain transported to X.

    The key is set at construction, from `text` when the caller already
    has it (as `_glued` does) and from the table otherwise.  The
    support, children and hash are computed on first use and kept.
    """

    table: tuple
    text: InitVar[str] = None
    _support: BallRegion = cached_field()
    _children: tuple = cached_field()
    _key: str = cached_field()
    _hash: int = cached_field()

    def __post_init__(self, text):
        self._key = _table_text(self.table) if text is None else text

    @classmethod
    def from_table(cls, entries):
        return cls(reduce_table(entries))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.table,))
        return self._hash

    def support(self):
        """The image words as a region.  A single word is already
        reduced, so a one-entry table needs no `make`."""
        if self._support is None:
            t = self.table
            if len(t) == 1:
                support = BallRegion((t[0][1],))
            else:
                support = BallRegion.make([g for _, g in t])
            self._support = support
        return self._support

    def children(self):
        """The two halves: restrictions to B_0 and B_1, transported to X.

        A mergeable sibling pair in a half would be one in the table too,
        so the restriction of a reduced table is already reduced.
        """
        if self._children is None:
            t = self.table
            if len(t) == 1:
                ((_, g),) = t
                kids = (
                    VElement((("", g + "0"),), f"->{g}0"),
                    VElement((("", g + "1"),), f"->{g}1"),
                )
            else:
                kids = (
                    VElement(tuple((d[1:], g) for d, g in t if d[0] == "0")),
                    VElement(tuple((d[1:], g) for d, g in t if d[0] == "1")),
                )
            self._children = kids
        return self._children

    def key(self):
        return self._key

    def __str__(self):
        return self.key()


def _table_text(table):
    """A table as `d->g,...` text: the key of (group) elements."""
    return ",".join([f"{d}->{g}" for d, g in table])


def canonicalize(entries, domain=""):
    """Canonical class of a raw table whose domain code partitions B_domain.

    Transports the domain to X by stripping the `domain` prefix, then
    reduces.  Raises DomainMismatch when an entry does not live inside
    the stated domain ball.
    """
    check_word(domain)
    stripped = []
    for d, g in entries:
        check_word(d)
        if not d.startswith(domain):
            raise DomainMismatch(
                f"domain word {d!r} is not inside ball {domain!r}"
            )
        stripped.append((d[len(domain):], g))
    return VElement.from_table(stripped)


def parse_table_text(text):
    """Parse the `"00->1, 01->01, 1->00"` table grammar."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if "->" not in part:
            raise InputError(f"bad table entry {part!r}")
        d, g = part.split("->", 1)
        entries.append((check_word(d.strip()), check_word(g.strip())))
    return tuple(entries)


def parse_table(obj):
    """Raw table entries from the text grammar or a list of pairs."""
    if isinstance(obj, str):
        return parse_table_text(obj)
    if not isinstance(obj, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in obj
    ):
        raise InputError(f"not a table of [domain, image] pairs: {obj!r}")
    return tuple(tuple(e) for e in obj)


def glue(b1, b2):
    """The element whose basin is (b1, b2), with b1 under the left half."""
    support = _disjoint_union(b1.support(), b2.support())
    if support is None:
        raise OverlappingSupports(0, 1)
    return _glued(b1, b2, support)


def _disjoint_union(s1, s2):
    """The union of two regions, or None if they overlap.

    One sorted word list serves both: the overlap sweep of
    `BallRegion.all_disjoint` (`_sorted_antichain`), then
    `BallRegion.make`, whose own sort finds the list already sorted and
    so makes one linear pass.
    """
    ws = _sorted_antichain(s1.words + s2.words)
    return None if ws is None else BallRegion.make(ws)


def _glued(b1, b2, support):
    """`glue` without the disjointness check, for callers that made it.

    `support` is the union of the halves' supports, the support of the
    result; it and the halves b1 and b2 fill its caches, and the key is
    passed in as `text`.

    The table needs no `_merge_sorted`.  Two entries of one half, once
    prefixed, are a mergeable sibling pair iff they were one in that
    half's own table, which is reduced; so no merge happens inside a
    half, and none can cascade from one.  Domain words '0'+d and '1'+d'
    are siblings only when d = d' = '', that is when both halves are
    one-entry tables ('', g1) and ('', g2).  They merge iff g1 = w+'0'
    and g2 = w+'1', into the single entry ('', w); else the table is
    ('0', g1), ('1', g2).  Otherwise the table is the two prefixed
    halves joined, in domain order.

    The key follows from the halves' keys in the same cases: each
    entry's text `d->g` becomes `0d->g` or `1d->g`, and entries are
    separated by commas, which no word or arrow holds.
    """
    t1, t2 = b1.table, b2.table
    if len(t1) == len(t2) == 1:
        g1, g2 = t1[0][1], t2[0][1]
        w = g1[:-1]
        if (g1, g2) == (w + "0", w + "1"):
            table, key = (("", w),), "->" + w
        else:
            table, key = (("0", g1), ("1", g2)), f"0->{g1},1->{g2}"
    else:
        table = tuple(
            [("0" + d, g) for d, g in t1] + [("1" + d, g) for d, g in t2]
        )
        key = (
            "0" + b1._key.replace(",", ",0")
            + ",1" + b2._key.replace(",", ",1")
        )
    glued = VElement(table, key)
    glued._support = support
    glued._children = (b1, b2)
    return glued


# -- the group ------------------------------------------------------------


@dataclass(unsafe_hash=True, slots=True)
class VGroupElement:
    """A table that is a bijection of X: both word columns complete codes.
    The key is computed on first use and kept."""

    table: tuple
    _key: str = cached_field()

    @classmethod
    def from_table(cls, entries):
        table = reduce_table(entries)
        if not is_complete_code([g for _, g in table]):
            raise NotABijection("image words do not partition the space")
        return cls(table)

    def inverse(self):
        return VGroupElement(_merge_sorted(invert_entries(self.table)))

    def __mul__(self, other):
        return VGroupElement(compose_entries(self.table, other.table))

    def key(self):
        if self._key is None:
            self._key = _table_text(self.table)
        return self._key

    def __str__(self):
        return self.key()


class VSystem(ExpansionSystem):
    """The prefix-substitution expansion system (Thompson's group V)."""

    name = "v"

    def coexpansions(self, elements):
        """The two gluings of a disjoint pair, the key-smaller element
        under the left half first.  Both share one support, the union of
        the pair's."""
        els = tuple(elements)
        if len(els) != 2:
            return []
        b1, b2 = els
        if b2._key < b1._key:
            b1, b2 = b2, b1
        support = _disjoint_union(b1.support(), b2.support())
        if support is None:
            return []
        return [_glued(b1, b2, support), _glued(b2, b1, support)]

    def covers_space(self, regions):
        return is_complete_code(w for r in regions for w in r.words)

    def base_vertex(self):
        return Vertex((VElement((("", ""),)),))

    def standardize(self, v):
        return ascend(v, lambda b: len(b.table) > 1)

    def join_standard(self, s1, s2):
        """The common refinement of two standard vertices' codes: of each
        pair of nested words, the longer.  Two words kept are never
        nested, since each code is an antichain, so the balls are
        disjoint by construction and the vertex is not checked again."""
        code1 = self._standard_code(s1)
        code2 = self._standard_code(s2)
        joined = set()
        for u in code1:
            for w in code2:
                if w.startswith(u):
                    joined.add(w)
                elif u.startswith(w):
                    joined.add(u)
        return _vertex_unchecked([VElement((("", w),)) for w in joined])

    def _standard_code(self, s):
        words = []
        for b in s:
            if len(b.table) != 1 or b.table[0][0] != "":
                raise InputError("vertex is not standard")
            words.append(b.table[0][1])
        return words

    def transfer(self, b1, b2):
        """The partial table carrying supp(b1) onto supp(b2) so that
        g·b1 = b2; it always exists here."""
        return compose_entries(b2.table, invert_entries(b1.table))

    def assemble(self, pieces):
        # Each entry maps a ball onto a ball: the pieces tile X on both
        # sides iff both word columns are complete codes.
        if not (
            is_complete_code(d for piece in pieces for d, _ in piece)
            and is_complete_code(g for piece in pieces for _, g in piece)
        ):
            raise NotABijection("pieces do not tile the space")
        return self._assemble_unchecked(pieces)

    def _assemble_unchecked(self, pieces):
        entries = sorted([entry for piece in pieces for entry in piece])
        return VGroupElement(_merge_sorted(entries))

    def identity(self):
        return VGroupElement((("", ""),))

    def act(self, g, b):
        """g·b: compose the bijection after the class representative."""
        return VElement(compose_entries(g.table, b.table))

    def parse_element(self, obj):
        if isinstance(obj, dict):
            if "table" not in obj:
                raise InputError("element object needs a 'table' field")
            return canonicalize(
                parse_table(obj["table"]), obj.get("domain", "")
            )
        return canonicalize(parse_table(obj))

    def element_to_obj(self, b):
        return [list(e) for e in b.table]

    def parse_group(self, obj):
        if isinstance(obj, dict):
            if "table" not in obj:
                raise InputError("group object needs a 'table' field")
            obj = obj["table"]
        return VGroupElement.from_table(parse_table(obj))

    def group_to_obj(self, g):
        return [list(e) for e in g.table]
