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
from dataclasses import dataclass

from .core import (
    DomainMismatch,
    ExpansionSystem,
    InputError,
    NotABijection,
    OverlappingSupports,
    Vertex,
    _in_key_order,
    ascend,
    cached_field,
    validate_vertex,
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


def is_complete_code(words):
    """True iff the balls named by `words` partition the whole space.
    No word may be nested in another (the adjacent test of
    `_nested_pair`), and the balls' measures must sum to one."""
    ws = sorted(words)
    if any(map(str.startswith, ws[1:], ws)):
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


@dataclass(frozen=True, slots=True)
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
        spans two regions.
        """
        return _nested_pair(w for r in regions for w in r.words) is None


# -- tables ---------------------------------------------------------------


def _merge_sorted(entries):
    """Merge sibling (d0->g0),(d1->g1) pairs in a domain-sorted table: an
    entry merges with the top of the stack while that is its sibling."""
    stack = []
    for d, g in entries:
        while (
            stack
            and d[-1:] == g[-1:] == "1"
            and stack[-1] == (d[:-1] + "0", g[:-1] + "0")
        ):
            stack.pop()
            d, g = d[:-1], g[:-1]
        stack.append((d, g))
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


@dataclass(frozen=True, slots=True)
class VElement:
    """Canonical class of a finite prefix-map with domain transported to X.

    The support, children, key and hash are computed on first use and
    kept.
    """

    table: tuple
    _support: BallRegion = cached_field()
    _children: tuple = cached_field()
    _key: str = cached_field()
    _hash: int = cached_field()

    @classmethod
    def from_table(cls, entries):
        return cls(reduce_table(entries))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.table,)))
        return self._hash

    def support(self):
        if self._support is None:
            object.__setattr__(
                self, "_support", BallRegion.make([g for _, g in self.table])
            )
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
                kids = (VElement((("", g + "0"),)), VElement((("", g + "1"),)))
            else:
                kids = (
                    VElement(tuple((d[1:], g) for d, g in t if d[0] == "0")),
                    VElement(tuple((d[1:], g) for d, g in t if d[0] == "1")),
                )
            object.__setattr__(self, "_children", kids)
        return self._children

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", _table_text(self.table))
        return self._key

    def __str__(self):
        return self.key()


def _table_text(table):
    """A table as `d->g,...` text: the key of (group) elements."""
    return ",".join(f"{d}->{g}" for d, g in table)


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
    if not BallRegion.all_disjoint((b1.support(), b2.support())):
        raise OverlappingSupports(0, 1)
    return _glued(b1, b2)


def _glued(b1, b2):
    """`glue` without the disjointness check, for callers that made it.

    The halves of the result are b1 and b2, so they fill its children
    cache.
    """
    entries = tuple(("0" + d, g) for d, g in b1.table) + tuple(
        ("1" + d, g) for d, g in b2.table
    )
    glued = VElement(_merge_sorted(entries))
    object.__setattr__(glued, "_children", (b1, b2))
    return glued


# -- the group ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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
            object.__setattr__(self, "_key", _table_text(self.table))
        return self._key

    def __str__(self):
        return self.key()


class VSystem(ExpansionSystem):
    """The prefix-substitution expansion system (Thompson's group V)."""

    name = "v"

    def coexpansions(self, elements):
        els = _in_key_order(elements)
        if len(els) != 2:
            return []
        b1, b2 = els
        if not BallRegion.all_disjoint((b1.support(), b2.support())):
            return []
        return [_glued(b1, b2), _glued(b2, b1)]

    def covers_space(self, regions):
        return _normalize_words(w for r in regions for w in r.words) == ("",)

    def base_vertex(self):
        return Vertex((VElement((("", ""),)),))

    def standardize(self, v):
        return ascend(v, lambda b: len(b.table) > 1)

    def join_standard(self, s1, s2):
        code1 = self._standard_code(s1)
        code2 = self._standard_code(s2)
        joined = set()
        for u in code1:
            for w in code2:
                if w.startswith(u):
                    joined.add(w)
                elif u.startswith(w):
                    joined.add(u)
        return validate_vertex(
            [VElement((("", w),)) for w in sorted(joined)]
        )

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
        entries = sorted(entry for piece in pieces for entry in piece)
        if not (
            is_complete_code(d for d, _ in entries)
            and is_complete_code(g for _, g in entries)
        ):
            raise NotABijection("pieces do not tile the space")
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
