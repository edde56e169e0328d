"""Point and ray classes over n copies of the natural numbers.

The space X is the disjoint union of branches N_1, ..., N_n, each a copy
of {1, 2, 3, ...}.  The basic partial maps are within-branch translations
of rays [k, oo) and arbitrary singleton maps {x} -> {y}; elements here
are classes of finite disjoint unions of those maps whose domain is a
single point or a single ray, up to transport of the domain.

A point class is determined by its image point alone.  A ray class has
a well-defined domain branch (rays only transport within a branch); its
canonical form records the finitely many exceptional images followed by
a translation onto a tail [tail, oo) of the same branch, reduced so the
last exception never sits immediately below the tail.  These classes
carry the cubical complex on which Houghton's group H_n acts; expanding
a ray peels off its first point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DomainMismatch,
    ExpansionSystem,
    InputError,
    NotABijection,
    ascend,
    cached_field,
    validate_vertex,
)


class CrossBranchTail(InputError):
    pass


def check_point(p):
    """A point as a (branch, position) tuple; a list literal is accepted."""
    if isinstance(p, list):
        p = tuple(p)
    # Here and for every count: a JSON `true` is an `int` to `isinstance`.
    if (
        not isinstance(p, tuple)
        or len(p) != 2
        or not all(type(c) is int for c in p)
        or p[0] < 1
        or p[1] < 1
    ):
        raise InputError(f"not a point (branch, position >= 1): {p!r}")
    return p


@dataclass(frozen=True)
class SparseRegion:
    """A region of X: finitely many points plus at most one tail per branch.

    Normalized so no point lies inside or immediately below a tail; the
    descriptor is then a unique name for the region.
    """

    points: frozenset
    tails: tuple  # ((branch, start), ...) sorted, one entry per branch

    @classmethod
    def make(cls, points, tails):
        """Normalize in one pass: lowering a tail over the points just
        below it stops at a gap, and absorbing the points inside a tail
        adds none, so a second pass would change nothing."""
        pts = set(points)
        starts = {}
        for i, k in tails:
            starts[i] = min(starts.get(i, k), k)
        for i, k in starts.items():
            while k > 1 and (i, k - 1) in pts:
                k -= 1
            starts[i] = k
        pts = {(i, m) for i, m in pts if i not in starts or m < starts[i]}
        return cls(frozenset(pts), tuple(sorted(starts.items())))

    @staticmethod
    def all_disjoint(regions):
        """True iff the regions are pairwise disjoint, in one sweep.

        Each region is normalized, so an overlap is a branch with two
        tails, a point named twice, or a point inside another's tail.
        """
        starts = {}
        points = set()
        count = 0
        for r in regions:
            for i, k in r.tails:
                if i in starts:
                    return False
                starts[i] = k
            points |= r.points
            count += len(r.points)
        if len(points) < count:
            return False
        for i, m in points:
            if i in starts and m >= starts[i]:
                return False
        return True


@dataclass(frozen=True, slots=True)
class HPointClass:
    """Class of a singleton map, determined by the image point.

    The support, key and hash are computed on first use and kept.
    """

    image: tuple
    _support: SparseRegion = cached_field()
    _key: str = cached_field()
    _hash: int = cached_field()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.image,)))
        return self._hash

    def support(self):
        if self._support is None:
            object.__setattr__(
                self, "_support", SparseRegion(frozenset((self.image,)), ())
            )
        return self._support

    def children(self):
        return None

    def key(self):
        if self._key is None:
            object.__setattr__(
                self, "_key", f"p{self.image[0]}.{self.image[1]}"
            )
        return self._key

    def __str__(self):
        return self.key()


@dataclass(frozen=True, slots=True)
class HRayClass:
    """Class of a ray map: exceptional images, then a same-branch tail.

    The support, children, key and hash are computed on first use and
    kept.
    """

    branch: int
    exceptions: tuple
    tail: int
    _support: SparseRegion = cached_field()
    _children: tuple = cached_field()
    _key: str = cached_field()
    _hash: int = cached_field()

    @classmethod
    def make(cls, branch, exceptions, tail, tail_branch=None):
        """Validate and reduce ray data into the canonical form."""
        if tail_branch is not None and (
            type(tail_branch) is not int or tail_branch != branch
        ):
            raise CrossBranchTail(
                f"ray in branch {branch} cannot translate onto branch"
                f" {tail_branch}"
            )
        if type(branch) is not int or branch < 1:
            raise InputError(f"bad branch {branch!r}")
        if type(tail) is not int or tail < 1:
            raise InputError(f"bad tail start {tail!r}")
        exceptions = tuple(check_point(p) for p in exceptions)
        if len(set(exceptions)) != len(exceptions):
            raise InputError("exceptional images must be distinct")
        if any(i == branch and m >= tail for i, m in exceptions):
            raise InputError("exceptional image inside the tail")
        return cls._reduced(branch, exceptions, tail)

    @classmethod
    def _reduced(cls, branch, exceptions, tail):
        """The canonical form of ray data that `make` would accept: only
        its last step, which lowers the tail over trailing exceptions."""
        while exceptions and exceptions[-1] == (branch, tail - 1):
            exceptions = exceptions[:-1]
            tail -= 1
        return cls(branch, exceptions, tail)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((self.branch, self.exceptions, self.tail)),
            )
        return self._hash

    def support(self):
        # make(), not the raw constructor: an exceptional image sitting
        # just below the tail (legal unless it is the last exception)
        # must be absorbed into the tail in the region descriptor.
        if self._support is None:
            object.__setattr__(
                self,
                "_support",
                SparseRegion.make(
                    self.exceptions, ((self.branch, self.tail),)
                ),
            )
        return self._support

    def children(self):
        """Peel the first point: (point class, shifted ray class)."""
        if self._children is None:
            if self.exceptions:
                # Dropping the first exception of a canonical ray keeps
                # it canonical.
                first = self.exceptions[0]
                rest = HRayClass(self.branch, self.exceptions[1:], self.tail)
            else:
                first = (self.branch, self.tail)
                rest = HRayClass(self.branch, (), self.tail + 1)
            object.__setattr__(self, "_children", (HPointClass(first), rest))
        return self._children

    def key(self):
        if self._key is None:
            exc = ";".join(f"{i}.{m}" for i, m in self.exceptions)
            object.__setattr__(
                self, "_key", f"r{self.branch}:{exc}:{self.tail}"
            )
        return self._key

    def __str__(self):
        return self.key()


def canonicalize_point(image):
    return HPointClass(check_point(image))


def canonicalize_ray(branch, images, tail, start=1, tail_branch=None):
    """Canonical ray class of a raw ray map.

    The raw map has domain [start, oo) in `branch`, sends its first
    positions to `images`, and translates the rest onto [tail, oo).
    Transporting the domain to [1, oo) only relabels positions, so the
    class is independent of `start`.
    """
    if type(start) is not int or start < 1:
        raise DomainMismatch(f"not a ray domain start: {start!r}")
    return HRayClass.make(branch, images, tail, tail_branch=tail_branch)


@dataclass(frozen=True, slots=True)
class HGroupElement:
    """An eventually-translation bijection of X.

    `offsets[i-1]` is the eventual translation amount on branch i;
    `exceptions` lists the finitely many points whose image deviates
    from that translation (or whose translation image would fall below
    position 1), sorted by domain point.  The key and the exceptions
    read as a map each way are computed on first use and kept.
    """

    n: int
    offsets: tuple
    exceptions: tuple  # ((domain point, image point), ...)
    _key: str = cached_field()
    _images: dict = cached_field()
    _preimages: dict = cached_field()

    @classmethod
    def make(cls, n, offsets, exceptions):
        offsets = tuple(int(t) for t in offsets)
        if len(offsets) != n:
            raise InputError("need one offset per branch")
        exc = {}
        pairs = exceptions.items() if isinstance(exceptions, dict) else exceptions
        for x, y in pairs:
            x = check_point(x)
            y = check_point(y)
            if x[0] > n or y[0] > n:
                raise InputError(f"branch out of range in {x} -> {y}")
            if exc.setdefault(x, y) != y:
                raise NotABijection(f"point {x} mapped twice")
        g = cls._normalized(n, offsets, exc.items())
        g._check_bijection()
        return g

    @classmethod
    def _normalized(cls, n, offsets, pairs):
        """`make` without its checks, for bijections built here: products,
        inverses and assembled pieces.  Only the entries that agree with
        the eventual translation are dropped."""
        exc = {
            (i, p): y
            for (i, p), y in pairs
            if not (p + offsets[i - 1] >= 1 and y == (i, p + offsets[i - 1]))
        }
        return cls(n, offsets, tuple(sorted(exc.items())))

    def _check_bijection(self):
        # Positions 1..t of a branch with offset t > 0 are no translate's
        # image, and positions 1..|t| with t < 0 have no translate: each
        # such point needs its own exception.  Checked before any loop
        # below runs over |t| positions.
        if max(
            sum(t for t in self.offsets if t > 0),
            sum(-t for t in self.offsets if t < 0),
        ) > len(self.exceptions):
            raise NotABijection("offsets exceed what the exceptions cover")
        exc = dict(self.exceptions)
        for i, t in enumerate(self.offsets, start=1):
            # with a negative offset the lowest positions cannot translate
            for p in range(1, 1 - t):
                if (i, p) not in exc:
                    raise NotABijection(f"point ({i}, {p}) has no valid image")
        values = [y for _, y in self.exceptions]
        if len(set(values)) != len(values):
            raise NotABijection("two points share an image")
        uncovered = set()
        for i, t in enumerate(self.offsets, start=1):
            for q in range(1, t + 1):
                uncovered.add((i, q))
        for (i, p) in exc:
            q = p + self.offsets[i - 1]
            if q >= 1:
                uncovered.add((i, q))
        if set(values) != uncovered:
            raise NotABijection(
                "exceptional images do not tile the uncovered points"
            )

    def apply(self, x):
        if self._images is None:
            object.__setattr__(self, "_images", dict(self.exceptions))
        i, p = x
        return self._images.get(x, (i, p + self.offsets[i - 1]))

    def preimage(self, y):
        # A bijection's exceptional images are distinct.
        if self._preimages is None:
            inverse = {v: x for x, v in self.exceptions}
            object.__setattr__(self, "_preimages", inverse)
        i, q = y
        return self._preimages.get(y, (i, q - self.offsets[i - 1]))

    def inverse(self):
        return HGroupElement._normalized(
            self.n,
            tuple(-t for t in self.offsets),
            tuple((y, x) for x, y in self.exceptions),
        )

    def __mul__(self, other):
        if self.n != other.n:
            raise InputError("group elements over different spaces")
        offsets = tuple(
            a + b for a, b in zip(self.offsets, other.offsets)
        )
        candidates = {x for x, _ in other.exceptions}
        candidates |= {other.preimage(x) for x, _ in self.exceptions}
        exc = {x: self.apply(other.apply(x)) for x in candidates}
        return HGroupElement._normalized(self.n, offsets, exc.items())

    def key(self):
        if self._key is None:
            exc = ";".join(
                f"{x[0]}.{x[1]}>{y[0]}.{y[1]}" for x, y in self.exceptions
            )
            object.__setattr__(
                self, "_key", f"g{','.join(map(str, self.offsets))}:{exc}"
            )
        return self._key

    def __str__(self):
        return self.key()


@dataclass(frozen=True, slots=True)
class HPiece:
    """A transfer piece: finitely many point maps plus at most one
    within-branch tail translation.  Its domain and image regions are
    built on first use and kept."""

    point_pairs: tuple
    tail_pair: object  # ((branch, start), (branch, start)) or None
    _regions: tuple = cached_field()

    def regions(self):
        """(domain, image): the regions the piece maps between."""
        if self._regions is None:
            tails = [(), ()]
            if self.tail_pair is not None:
                tails = [[end] for end in self.tail_pair]
            regions = tuple(
                SparseRegion.make([p[side] for p in self.point_pairs], tail)
                for side, tail in enumerate(tails)
            )
            object.__setattr__(self, "_regions", regions)
        return self._regions


class HoughtonSystem(ExpansionSystem):
    """The point/ray expansion system over n branches (Houghton's H_n)."""

    name = "houghton"

    def __init__(self, n=2):
        if type(n) is not int or n < 1:
            raise InputError(f"branch count must be a positive int: {n!r}")
        self.n = n

    def header(self):
        return {"instance": self.name, "n": self.n}

    def _check_element(self, b):
        branches = (
            [b.image[0]]
            if isinstance(b, HPointClass)
            else [b.branch] + [i for i, _ in b.exceptions]
        )
        if any(i > self.n for i in branches):
            raise InputError(f"branch out of range for n={self.n}")
        return b

    def coexpansions(self, elements):
        els = list(elements)
        if len(els) != 2:
            return []
        points = [b for b in els if isinstance(b, HPointClass)]
        rays = [b for b in els if isinstance(b, HRayClass)]
        if len(points) != 1 or len(rays) != 1:
            return []
        p, r = points[0], rays[0]
        if not SparseRegion.all_disjoint((p.support(), r.support())):
            return []
        # p lies outside r's support, so the data is valid as it stands,
        # and peeling the glued ray gives back p and r.
        glued = HRayClass._reduced(r.branch, (p.image,) + r.exceptions, r.tail)
        object.__setattr__(glued, "_children", (p, r))
        return [glued]

    def covers_space(self, regions):
        # Compared with the whole space's descriptor (no points, tail
        # (i, 1) on each branch i) without building it: n may be huge.
        union = SparseRegion.make(
            [p for r in regions for p in r.points],
            [t for r in regions for t in r.tails],
        )
        return (
            not union.points
            and len(union.tails) == self.n
            and all(t == (i, 1) for i, t in enumerate(union.tails, start=1))
        )

    def base_vertex(self):
        return validate_vertex(
            [HRayClass(i, (), 1) for i in range(1, self.n + 1)]
        )

    def standardize(self, v):
        return ascend(v, lambda b: isinstance(b, HRayClass) and b.exceptions)

    def _standard_tails(self, s):
        starts = {}
        for b in s:
            if isinstance(b, HRayClass):
                if b.exceptions:
                    raise InputError("vertex is not standard")
                starts[b.branch] = b.tail
        if sorted(starts) != list(range(1, self.n + 1)):
            raise InputError("vertex does not cover every branch")
        return starts

    def join_standard(self, s1, s2):
        t1 = self._standard_tails(s1)
        t2 = self._standard_tails(s2)
        target_tails = {i: max(t1[i], t2[i]) for i in t1}
        elements = [
            HRayClass(i, (), k) for i, k in target_tails.items()
        ]
        elements += [
            HPointClass((i, q))
            for i, k in target_tails.items()
            for q in range(1, k)
        ]
        return validate_vertex(elements)

    def transfer(self, b1, b2):
        if isinstance(b1, HPointClass) and isinstance(b2, HPointClass):
            return HPiece(((b1.image, b2.image),), None)
        if isinstance(b1, HRayClass) and isinstance(b2, HRayClass):
            if b1.branch != b2.branch:
                return None
            m1 = len(b1.exceptions) + 1
            m2 = len(b2.exceptions) + 1
            top = max(m1, m2)

            def image(b, m, q):
                if q < m:
                    return b.exceptions[q - 1]
                return (b.branch, b.tail + q - m)

            pairs = tuple(
                (image(b1, m1, q), image(b2, m2, q)) for q in range(1, top)
            )
            tail_pair = (
                (b1.branch, b1.tail + top - m1),
                (b2.branch, b2.tail + top - m2),
            )
            return HPiece(pairs, tail_pair)
        return None

    def assemble(self, pieces):
        offsets = [0] * self.n
        for piece in pieces:
            if piece.tail_pair is not None:
                (i, k), (j, l) = piece.tail_pair
                if i != j:
                    raise CrossBranchTail(
                        "tail piece must stay within its branch"
                    )
                offsets[i - 1] = l - k
        regions = [piece.regions() for piece in pieces]
        for family in ([d for d, _ in regions], [g for _, g in regions]):
            if not (
                SparseRegion.all_disjoint(family)
                and self.covers_space(family)
            ):
                raise NotABijection("pieces do not tile the space")
        pairs = [pair for piece in pieces for pair in piece.point_pairs]
        return HGroupElement._normalized(self.n, tuple(offsets), pairs)

    def identity(self):
        return HGroupElement(self.n, (0,) * self.n, ())

    def act(self, g, b):
        if isinstance(b, HPointClass):
            return HPointClass(g.apply(b.image))
        exc_positions = [
            p for (i, p), _ in g.exceptions if i == b.branch
        ]
        top = max(exc_positions, default=0)
        t = g.offsets[b.branch - 1]
        peel = max(0, top - b.tail + 1, 1 - t - b.tail)
        images = [g.apply(y) for y in b.exceptions]
        images += [
            g.apply((b.branch, b.tail + j)) for j in range(peel)
        ]
        # g is a bijection that translates [b.tail + peel, oo): the images
        # are distinct points outside the translated tail, as `make` asks.
        return HRayClass._reduced(b.branch, tuple(images), b.tail + peel + t)

    def parse_element(self, obj):
        if isinstance(obj, (list, tuple)):
            return self._check_element(canonicalize_point(obj))
        if isinstance(obj, dict):
            if "point" in obj:
                return self._check_element(canonicalize_point(obj["point"]))
            for name in ("branch", "tail"):
                if name not in obj:
                    raise InputError(f"ray literal needs a {name!r} field")
            tail = obj["tail"]
            tail_branch = None
            if isinstance(tail, (list, tuple)):
                if len(tail) != 2:
                    raise InputError(f"bad tail {tail!r}")
                tail_branch, tail = tail
            exceptions = obj.get("exceptions", [])
            if not isinstance(exceptions, (list, tuple)):
                raise InputError(f"exceptions must be a list: {exceptions!r}")
            ray = canonicalize_ray(
                obj["branch"],
                exceptions,
                tail,
                start=obj.get("start", 1),
                tail_branch=tail_branch,
            )
            return self._check_element(ray)
        raise InputError(f"bad element literal: {obj!r}")

    def element_to_obj(self, b):
        if isinstance(b, HPointClass):
            return list(b.image)
        return {
            "branch": b.branch,
            "exceptions": [list(p) for p in b.exceptions],
            "tail": b.tail,
        }

    def parse_group(self, obj):
        if not isinstance(obj, dict):
            raise InputError(f"group literal must be an object: {obj!r}")
        offsets = obj.get("offsets", [0] * self.n)
        if not isinstance(offsets, list) or not all(
            type(t) is int for t in offsets
        ):
            raise InputError(f"offsets must be a list of ints: {offsets!r}")
        exceptions = obj.get("exceptions", [])
        if not isinstance(exceptions, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in exceptions
        ):
            raise InputError(
                f"exceptions must be a list of [point, point] pairs:"
                f" {exceptions!r}"
            )
        return HGroupElement.make(self.n, offsets, exceptions)

    def group_to_obj(self, g):
        return {
            "offsets": list(g.offsets),
            "exceptions": [
                [list(x), list(y)] for x, y in g.exceptions
            ],
        }
