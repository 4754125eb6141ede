"""Record ingestion, time binning, serialization, and synthetic corpora.

Adoption events travel as newline-delimited JSON objects with fields
"user", "hashtag", and integer "ts" (seconds).  In memory they are columns:
the sorted distinct ids, int64 codes into them and the timestamps, in event
order.  Binning turns the events of one hashtag into a binary user-by-time
matrix.  The synthetic generator produces seeded corpora whose shape mimics a
trending hashtag: adoption onsets concentrated early, re-adoption probability
decaying afterwards.
"""

import io
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import SparseBinaryMatrix

__all__ = [
    "AdoptionRecords",
    "SynthConfig",
    "parse_records",
    "write_records",
    "bin_records",
    "generate_synthetic",
    "generate_corpus",
    "cumulative_counts",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_cumulative_csv",
]

# On a stripped line, raw_decode succeeding up to the line's end is exactly json.loads.
_raw_decode = json.JSONDecoder().raw_decode

# The compact line write_records emits, with ids of printable ASCII other than '"' and '\\'
# and a ts of at most 18 digits without a leading zero.  On such a line json.loads returns
# exactly the captured groups (no escapes, no duplicate keys, an int below 2**63), and the
# event is valid, so neither needs checking.  The repeats are possessive: a '"' or '}' must
# follow each id and ts, so giving back a character never helps a match.
_ID = rb'([\x20\x21\x23-\x5b\x5d-\x7e]++)'
_RECORD = rb'\{"user":"' + _ID + rb'","hashtag":"' + _ID + rb'","ts":(0|[1-9][0-9]{0,17}+)\}'
_canonical_record = re.compile(_RECORD + rb"(?:\r?\n)?").fullmatch
# A block of such lines; only the stream's last line may lack its newline.  The repeat is
# possessive, like _canonical_matrix's.
_canonical_block = re.compile(rb"(?:" + _RECORD + rb"\r?\n)*+(?:" + _RECORD + rb")?").fullmatch

_BLOCK_BYTES = 1 << 18  # bytes per read of parse_records


# The exact bytes save_matrix_csv writes, with every count below 10**18 so that it fits int64.
# The repeat is possessive: a plain `*` keeps one backtracking frame per line, which on a
# 150k-line matrix costs tens of megabytes.
_COUNT = rb"(?:0|[1-9][0-9]{0,17})"
_canonical_matrix = re.compile(
    rb"N,(" + _COUNT + rb")\nM,(" + _COUNT + rb")\n((?:" + _COUNT + rb"," + _COUNT + rb",1\n)*+)"
).fullmatch


def _event_problem(user, hashtag, ts) -> str | None:
    """Why (user, hashtag, ts) is not a valid event, or None when it is."""
    if not isinstance(user, str) or not user:
        return f"user id must be a non-empty string, got {user!r}"
    if not isinstance(hashtag, str) or not hashtag:
        return f"hashtag must be a non-empty string, got {hashtag!r}"
    if isinstance(ts, bool) or not isinstance(ts, int) or ts < 0:
        return f"timestamp must be a non-negative integer, got {ts!r}"
    return None


def _codes(values: list) -> tuple[tuple, np.ndarray]:
    """The sorted distinct values and each value's index among them."""
    ids = sorted(dict.fromkeys(values))  # first-occurrence order is often near sorted, a set's is not
    index = dict(zip(ids, range(len(ids))))
    return tuple(ids), np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _ts_column(ts: list) -> np.ndarray:
    """Non-negative integers as int64, or as Python ints under dtype=object when one is 2**63 or more."""
    try:
        return np.array(ts, dtype=np.int64)
    except OverflowError:
        return np.array([int(t) for t in ts], dtype=object)


@dataclass(frozen=True, init=False, eq=False)
class AdoptionRecords:
    """Immutable sequence of (user_id, hashtag, timestamp-in-seconds) events, stored as columns.

    ``users`` and ``hashtags`` are the sorted distinct ids that occur, ``user``
    and ``hashtag`` are read-only int64 codes into them in event order, and
    ``ts`` holds the timestamps: int64, or Python ints under ``dtype=object``
    when one is 2**63 or more.  ``events`` is the same sequence as tuples.
    """

    users: tuple[str, ...]
    user: np.ndarray
    hashtags: tuple[str, ...]
    hashtag: np.ndarray
    ts: np.ndarray

    def __init__(self, events):
        users, hashtags, ts = [], [], []
        for ev in events:
            if len(ev) != 3:
                raise ValueError(f"event must be (user, hashtag, ts), got {ev!r}")
            problem = _event_problem(*ev)
            if problem:
                raise ValueError(problem)
            users.append(ev[0])
            hashtags.append(ev[1])
            ts.append(ev[2])
        self._set(*_codes(users), *_codes(hashtags), _ts_column(ts))

    def _set(self, users, user, hashtags, hashtag, ts) -> None:
        for array in (user, hashtag, ts):
            array.flags.writeable = False
        for name, value in zip(("users", "user", "hashtags", "hashtag", "ts"), (users, user, hashtags, hashtag, ts)):
            object.__setattr__(self, name, value)

    @classmethod
    def _checked(cls, users, user, hashtags, hashtag, ts) -> "AdoptionRecords":
        """Wrap columns that are already known to be valid, without checking them again."""
        records = object.__new__(cls)
        records._set(users, user, hashtags, hashtag, ts)
        return records

    @classmethod
    def of(cls, events) -> "AdoptionRecords":
        return cls(tuple((u, h, int(t)) for u, h, t in events))

    @property
    def events(self) -> tuple[tuple[str, str, int], ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.ts)

    def __iter__(self):
        return zip(
            map(self.users.__getitem__, self.user.tolist()),
            map(self.hashtags.__getitem__, self.hashtag.tolist()),
            self.ts.tolist(),
        )

    def __eq__(self, other):
        if not isinstance(other, AdoptionRecords):
            return NotImplemented
        # Ids are sorted and each occurs, so equal events mean equal columns.
        return (
            self.users == other.users
            and self.hashtags == other.hashtags
            and np.array_equal(self.user, other.user)
            and np.array_equal(self.hashtag, other.hashtag)
            and np.array_equal(self.ts, other.ts)
        )

    def __hash__(self):
        return hash(self.events)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic trending-hashtag generator.

    ``trend_decay`` is the success rate of the geometric draw for the
    first-adoption bin (larger means onsets pile up earlier); after onset,
    bin k is adopted with probability
    ``repeat_prob * exp(-repeat_decay * (k - onset - 1))``.
    """

    n_users: int
    n_bins: int
    trend_decay: float = 0.1
    repeat_prob: float = 0.5
    repeat_decay: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")
        if not 0.0 < self.trend_decay <= 1.0:
            raise ValueError(f"trend_decay must be in (0, 1], got {self.trend_decay}")
        if not 0.0 <= self.repeat_prob <= 1.0:
            raise ValueError(f"repeat_prob must be in [0, 1], got {self.repeat_prob}")
        if not self.repeat_decay >= 0:
            raise ValueError(f"repeat_decay must be >= 0, got {self.repeat_decay}")


def _digits(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The decimal numbers buf[start:stop], each at most 18 digits, as int64."""
    value = np.zeros(start.size, dtype=np.int64)
    length = stop - start
    for k in range(int(length.max(initial=0))):
        digit = buf[stop - 1 - k].astype(np.int64) - ord("0")
        value += np.where(length > k, digit, 0) * 10**k
    return value


def _fixed_width(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """The strings buf[start:stop] as one fixed-width bytes array, its width a multiple of
    8, or None when that array would be larger than buf (one long id makes every row as
    wide)."""
    length = stop - start
    width = -(-int(length.max(initial=1)) // 8) * 8
    if start.size * width > buf.size:
        return None
    grid = np.zeros((start.size, width), dtype=np.uint8)
    for k in range(int(length.max(initial=0))):
        grid[:, k] = np.where(length > k, buf.take(start + k, mode="clip"), 0)
    return grid.view(f"S{width}").ravel()


def _unique_ids(fixed: np.ndarray):
    """``np.unique(fixed, return_inverse=True)`` of fixed-width bytes.  Ids of 8 bytes
    sort as big-endian integers: the same order, several times faster."""
    if fixed.itemsize != 8:
        return np.unique(fixed, return_inverse=True)
    ids, codes = np.unique(fixed.view(">u8"), return_inverse=True)
    return ids.view("S8"), codes


def _canonical_columns(block: bytes):
    """(user ids, user codes, hashtag ids, hashtag codes, ts) of a block of lines that all
    have write_records' compact form, or None for any other block.

    The ids are sorted distinct fixed-width bytes, and the codes (int32) index them.  Ids
    hold no quote, so each line's ids lie between its 3rd and 4th and its 7th and 8th of
    ten quotes.  Its ts runs from two past the 10th quote to the '}' before its newline,
    which is two before the next line's 1st quote; the last line's newline is the block's
    last byte, or one past it.
    """
    if not _canonical_block(block):
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    quotes = np.flatnonzero(buf == ord('"')).reshape(-1, 10)
    ends = np.empty(len(quotes), dtype=np.int64)
    ends[:-1] = quotes[1:, 0] - 2
    ends[-1] = buf.size - (buf[-1] == ord("\n"))
    ends -= 1 + (buf[ends - 1] == ord("\r"))
    user = _fixed_width(buf, quotes[:, 2] + 1, quotes[:, 3])
    hashtag = _fixed_width(buf, quotes[:, 6] + 1, quotes[:, 7])
    if user is None or hashtag is None:
        return None
    users, user = _unique_ids(user)
    hashtags, hashtag = _unique_ids(hashtag)
    ts = _digits(buf, quotes[:, 9] + 2, ends)
    return users, user.astype(np.int32), hashtags, hashtag.astype(np.int32), ts


def _byte_blocks(stream):
    """The bytes of a binary stream in blocks of whole lines, read _BLOCK_BYTES at a time;
    only the last block may lack a final newline.  Each read is cut after its last newline
    and the rest carried into the next block, which is one join of the carried bytes and
    the next read up to its last newline.  A short read is carried like any other; a read
    that returns None (a non-blocking stream with no data ready) raises ValueError."""
    pieces = []  # the carried bytes; a line longer than a read joins its pieces once
    while chunk := stream.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pieces.append(chunk)
            continue
        pieces.append(memoryview(chunk)[:cut])
        yield b"".join(pieces)
        pieces = [chunk[cut:]]
    if chunk is None:
        raise ValueError(f"no data ready on a non-blocking stream: {stream!r}")
    if tail := b"".join(pieces):
        yield tail


def _parse_lines(lines, lineno: int, ids: dict, users: list, hashtags: list, ts: list):
    """The line loop: appends each valid event of ``lines`` to the three lists and returns
    (skipped count, last line number).

    Lines are numbered from ``lineno`` + 1.  A compact bytes line is matched by one regex,
    and ``ids`` gives one str per distinct id across the parse; any other line goes
    through the decoder.  Warnings name the caller of parse_records.
    """
    skipped = 0
    for lineno, raw in enumerate(lines, start=lineno + 1):
        if isinstance(raw, bytes):
            canonical = _canonical_record(raw)
            if canonical:
                user, hashtag, t = canonical.groups()
                if user not in ids:
                    ids[user] = user.decode("ascii")
                if hashtag not in ids:
                    ids[hashtag] = hashtag.decode("ascii")
                users.append(ids[user])
                hashtags.append(ids[hashtag])
                ts.append(int(t))
                continue
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                warnings.warn(f"line {lineno}: not valid UTF-8, skipped", stacklevel=3)
                skipped += 1
                continue
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = _raw_decode(line)
        except ValueError:  # JSONDecodeError, or an integer beyond int's digit limit
            end = None
        if end != len(line):
            warnings.warn(f"line {lineno}: not valid JSON, skipped", stacklevel=3)
            skipped += 1
            continue
        if not isinstance(obj, dict) or _event_problem(obj.get("user"), obj.get("hashtag"), obj.get("ts")):
            warnings.warn(f"line {lineno}: malformed record, skipped", stacklevel=3)
            skipped += 1
            continue
        users.append(obj["user"])
        hashtags.append(obj["hashtag"])
        ts.append(obj["ts"])
    return skipped, lineno


def _merged_codes(block_ids: list, codes: list, ids: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """One id column of the blocks' sorted distinct ids and codes: the sorted distinct ids,
    one str per id through ``ids``, and int64 codes into them in block order.

    Compact blocks' fixed-width ids are merged by numpy.  A line-loop block's ids are str
    and never pass through a numpy string array, which strips trailing NULs (a JSON id may
    end in "\\u0000"); they join the compact ids in one Python merge of distinct ids.
    """
    fixed = [a for a in block_ids if isinstance(a, np.ndarray)]
    names, inverse = (), np.empty(0, dtype=np.int64)
    if fixed:
        width = max(a.itemsize for a in fixed)
        merged, inverse = _unique_ids(np.concatenate([a.astype(f"S{width}") for a in fixed]))
        names = tuple(ids.setdefault(s, s.decode("ascii")) for s in merged.tolist())
    if len(fixed) < len(block_ids):
        # The compact ids are one sorted run already: the sort mostly places the new ids.
        merged = [*names, *set().union(*(a for a in block_ids if isinstance(a, tuple))).difference(names)]
        merged.sort()
        position = dict(zip(merged, range(len(merged))))
        inverse = np.fromiter(map(position.__getitem__, names), np.int64, len(names))[inverse]
        names = tuple(merged)
    out = np.empty(sum(c.size for c in codes), dtype=np.int64)
    a = k = 0
    for block, block_codes in zip(block_ids, codes):
        if isinstance(block, tuple):
            remap = np.fromiter(map(position.__getitem__, block), np.int64, len(block))
        else:
            remap, k = inverse[k : k + block.size], k + block.size
        np.take(remap, block_codes, out=out[a : a + block_codes.size])
        a += block_codes.size
    return names, out


def _assembled(blocks: list, ids: dict) -> AdoptionRecords:
    """Records of the blocks in order, each (user ids, user codes, hashtag ids, hashtag
    codes, ts): fixed-width ids from _canonical_columns, or str ids from the line loop."""
    users, user = _merged_codes([b[0] for b in blocks], [b[1] for b in blocks], ids)
    hashtags, hashtag = _merged_codes([b[2] for b in blocks], [b[3] for b in blocks], ids)
    return AdoptionRecords._checked(users, user, hashtags, hashtag, _joined([b[4] for b in blocks]))


def parse_records(stream) -> tuple[AdoptionRecords, int]:
    """Read newline-delimited JSON events; returns (records, skipped count).

    Accepts a text or byte stream (anything iterable by line).  Lines that
    are not valid JSON objects with string "user"/"hashtag" and non-negative
    integer "ts" are skipped with a warning and counted, never silently
    dropped.  Blank lines are ignored without counting.  Each line is read
    exactly as ``json.loads`` reads it once stripped.

    A binary stream (``io.BufferedIOBase`` or ``io.RawIOBase``: a file opened
    ``"rb"``, ``BytesIO``, a gzip or bz2 file, an unbuffered ``io.FileIO``) is
    read in raw blocks of about _BLOCK_BYTES of whole lines; a read that
    returns None, as a non-blocking stream with no data ready does, raises
    ValueError.  A block whose every line has the compact form ``write_records``
    emits is checked by one regex and split into columns by numpy; any other
    block is split as ``readlines`` splits it and goes through the line loop,
    so a non-compact line costs only its own block.  Every other stream or
    iterable goes through the line loop as one block.  Within one parse each
    distinct id is one shared str.
    """
    binary = isinstance(stream, (io.BufferedIOBase, io.RawIOBase))
    if binary:
        lines = _byte_blocks(stream)
    else:
        try:
            lines = (iter(stream),)  # one pass of the line loop
        except TypeError:
            raise ValueError(f"stream is not readable line by line: {stream!r}") from None
    blocks = []
    ids: dict[bytes, str] = {}
    skipped = lineno = 0
    for block in lines:
        columns = _canonical_columns(block) if binary else None
        if columns is None:
            users, hashtags, ts = [], [], []
            # A bytes block is split as readlines splits it: at "\n" only.
            bad, lineno = _parse_lines(io.BytesIO(block) if binary else block, lineno, ids, users, hashtags, ts)
            skipped += bad
            columns = (*_codes(users), *_codes(hashtags), _ts_column(ts))
        else:
            lineno += len(columns[4])
        blocks.append(columns)
    return _assembled(blocks, ids), skipped


_WRITE_CHUNK = 1 << 10  # events per write of write_records; small chunks keep its text off the peak


def write_records(records: AdoptionRecords, path) -> None:
    """Write events as newline-delimited JSON, one object per line.

    Each line is ``json.dumps`` of ``{"user": ..., "hashtag": ..., "ts": ...}``
    with compact separators.  Each distinct id is quoted once, by
    ``json.dumps``, and ``ts`` is written by ``int.__repr__``, as json does.
    """
    users = [json.dumps(s) for s in records.users]
    hashtags = [json.dumps(s) for s in records.hashtags]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a in range(0, len(records), _WRITE_CHUNK):
            b = a + _WRITE_CHUNK
            lines = zip(
                map(users.__getitem__, records.user[a:b].tolist()),
                map(hashtags.__getitem__, records.hashtag[a:b].tolist()),
                map(int.__repr__, records.ts[a:b].tolist()),
            )
            fh.write("".join([f'{{"user":{u},"hashtag":{h},"ts":{t}}}\n' for u, h, t in lines]))


def _hashtag_bins(records: AdoptionRecords, hashtag: str, bin_seconds: int):
    """(user count, each event's row, each event's bin) of one hashtag: the one binning
    rule, which ``bin_records`` and ``cumulative_counts`` share."""
    if bin_seconds <= 0:
        raise ValueError(f"bin_seconds must be > 0, got {bin_seconds}")
    if len(records) == 0:
        raise ValueError("cannot bin an empty record set")
    if hashtag not in records.hashtags:
        raise ValueError(f"no events for hashtag {hashtag!r}")
    tagged = np.flatnonzero(records.hashtag == records.hashtags.index(hashtag))
    users, rows = np.unique(records.user[tagged], return_inverse=True)
    ts = records.ts[tagged]
    if ts.dtype == object:
        big = [t for t in ts.tolist() if t >= 2**63]
        if big:
            raise ValueError(f"timestamp {big[0]} is too large: timestamps must be below 2**63")
        ts = ts.astype(np.int64)
    return users.size, rows, (ts - records.ts.min()) // bin_seconds


def bin_records(
    records: AdoptionRecords, hashtag: str, bin_seconds: int = 3600, m: int | None = None
) -> SparseBinaryMatrix:
    """Bin one hashtag's events into a binary user-by-time matrix.

    The bin origin is the minimum timestamp of the whole corpus, so matrices
    for different hashtags of the same corpus share a time axis.  Rows follow
    sorted user ids.  When ``m`` is omitted it defaults to the largest
    occupied bin plus 25% headroom; an explicit ``m`` must exceed the largest
    occupied bin index.
    """
    n, rows, bins = _hashtag_bins(records, hashtag, bin_seconds)
    max_bin = int(bins.max())
    if m is None:
        m = math.ceil(1.25 * (max_bin + 1))
    elif m <= max_bin:
        raise ValueError(
            f"m={m} is too small: largest occupied bin is {max_bin}, need m >= {max_bin + 1}"
        )
    return SparseBinaryMatrix(n, m, np.column_stack((rows, bins)))


def _user_ids(n_users: int) -> tuple[str, ...]:
    # Zero-padded, so sorted order is numeric order.
    width = len(str(n_users - 1))
    return tuple(f"u{i:0{width}d}" for i in range(n_users))


_DRAW_SLOTS = 1 << 13  # bins per scoring pass of the generators: 64 KiB buffers, below malloc's mmap threshold


def _decay(cfg: SynthConfig) -> np.ndarray:
    """exp(-repeat_decay * j) for the bins j after an onset, each by ``math.exp``."""
    return np.array([math.exp(-cfg.repeat_decay * j) for j in range(cfg.n_bins)])


def _adoptions(rng, cfg: SynthConfig, scales: np.ndarray, participation: float | None = None):
    """The events of one RNG stream's participations, one chunk of them at a time.

    Yields (owner, count, bins) per chunk: each participation's user index and event
    count, and the bins of its events, the onset first.  User i participates when
    ``participation`` is None or its own draw falls below it.  The loop over users makes
    only the RNG calls, in stream order: that draw, the geometric onset, and one call for
    the draws of the bins after the onset, written into a chunk buffer.  A participation
    takes n_bins - onset slots there: one for its onset, then one per later bin.  One
    numpy pass per chunk scores the draws: bin onset + 1 + j is adopted when its draw
    falls below ``(scales[i] * repeat_prob) * decay[j]``, the same float product as a
    comparison of one scalar draw per bin.  The onsets are drawn one call at a time:
    for a success rate below 1/3 numpy's geometric takes a varying number of doubles.
    """
    n_bins = cfg.n_bins
    decay = _decay(cfg)
    draws = np.empty(max(_DRAW_SLOTS, n_bins))
    starts = np.empty(draws.size, dtype=np.int64)
    owner = np.empty(draws.size, dtype=np.int64)

    def scored(k: int, end: int):
        begin = starts[:k]
        lengths = np.diff(begin, append=end)  # n_bins - onset
        slot = np.arange(end) - np.repeat(begin, lengths)  # 0 at the onset, j + 1 at later bin j
        threshold = np.repeat(scales[owner[:k]] * cfg.repeat_prob, lengths)
        threshold *= decay[slot - 1]  # the onset's slot reads decay[-1] and is overwritten below
        kept = draws[:end] < threshold
        kept[begin] = True
        slot += np.repeat(n_bins - lengths, lengths)  # each slot's bin
        return owner[:k].copy(), np.add.reduceat(kept, begin), slot[kept]

    random, geometric = rng.random, rng.geometric
    k = end = 0
    for i in range(cfg.n_users):
        if participation is not None and random() >= participation:
            continue
        slots = n_bins + 1 - int(geometric(cfg.trend_decay))  # n_bins - onset
        if slots < 1:  # the onset is capped at the last bin
            slots = 1
        if end + slots > draws.size:
            yield scored(k, end)
            k = end = 0
        starts[k] = end
        owner[k] = i
        k += 1
        end += slots
        random(out=draws[end - slots + 1 : end])
    if k:
        yield scored(k, end)


def _check_bin_seconds(bin_seconds) -> None:
    if isinstance(bin_seconds, bool) or not isinstance(bin_seconds, int) or bin_seconds < 0:
        raise ValueError(f"bin_seconds must be a non-negative integer, got {bin_seconds!r}")


def _timestamps(bins: np.ndarray, bin_seconds: int) -> np.ndarray:
    """The ts column of events in the given int64 bins: bin b at b * bin_seconds.  The
    bins array becomes the column unless a timestamp reaches 2**63."""
    if bin_seconds >= 2**63 or int(bins.max(initial=0)) * bin_seconds >= 2**63:
        return _ts_column([b * bin_seconds for b in bins.tolist()])
    bins *= bin_seconds
    return bins


def _joined(chunks: list) -> np.ndarray:
    """The chunks as one array (int64 when none); the list is emptied, so each chunk is freed."""
    out = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    chunks.clear()
    return out


def generate_synthetic(
    cfg: SynthConfig, hashtag: str = "h0", bin_seconds: int = 3600
) -> AdoptionRecords:
    """Seeded single-hashtag corpus: every user adopts once, then re-adopts
    with a per-bin probability that decays after onset."""
    problem = _event_problem("u", hashtag, 0)
    if problem:
        raise ValueError(problem)
    _check_bin_seconds(bin_seconds)
    counts, bins = [], []  # per chunk
    for _, chunk_counts, chunk_bins in _adoptions(np.random.default_rng(cfg.seed), cfg, np.ones(cfg.n_users)):
        counts.append(chunk_counts)
        bins.append(chunk_bins)
    ts = _timestamps(_joined(bins), bin_seconds)
    user = np.repeat(np.arange(cfg.n_users), _joined(counts))
    only = np.zeros(ts.size, dtype=np.int64)  # every event's hashtag is hashtags[0]
    return AdoptionRecords._checked(_user_ids(cfg.n_users), user, (hashtag,), only, ts)


def generate_corpus(
    cfg: SynthConfig,
    n_hashtags: int,
    participation: float = 0.35,
    bin_seconds: int = 3600,
) -> AdoptionRecords:
    """Seeded multi-hashtag corpus over a shared user pool.

    Each user gets a consistency propensity drawn once from [0.5, 1.0) and
    reused for every hashtag, so users who repeat do so across the corpus.
    Per hashtag, each user participates with the given probability; when they
    do, their events follow the single-hashtag scheme with repeat_prob scaled
    by their propensity.  Hashtag streams use seeds derived from cfg.seed, so
    the corpus is reproducible from one integer.

    Each hashtag's stream is drawn in user order: a participation draw per
    user and, for each participating user, a geometric onset and one call for
    the draws of the later bins.  The draws are then scored against their
    thresholds and turned into events by one numpy pass per chunk of
    participations.
    """
    if n_hashtags < 1:
        raise ValueError(f"n_hashtags must be >= 1, got {n_hashtags}")
    if not 0.0 < participation <= 1.0:
        raise ValueError(f"participation must be in (0, 1], got {participation}")
    _check_bin_seconds(bin_seconds)
    master = np.random.default_rng(cfg.seed)
    propensity = master.uniform(0.5, 1.0, size=cfg.n_users)
    owner, counts, bins, tags, sizes = [], [], [], [], []  # per chunk
    for t in range(n_hashtags):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1 + t]))
        for chunk_owner, chunk_counts, chunk_bins in _adoptions(rng, cfg, propensity, participation):
            owner.append(chunk_owner)
            counts.append(chunk_counts)
            bins.append(chunk_bins)
            tags.append(t)
            sizes.append(chunk_bins.size)
    ts = _timestamps(_joined(bins), bin_seconds)
    # Only the users and hashtags with an event are kept, as sorted ids.
    owner = _joined(owner)
    users, hashtags = np.unique(owner), sorted(set(tags))
    uids = _user_ids(cfg.n_users)
    tag_width = len(str(n_hashtags - 1))
    return AdoptionRecords._checked(
        tuple(uids[i] for i in users.tolist()),
        np.repeat(np.searchsorted(users, owner), _joined(counts)),
        tuple(f"h{t:0{tag_width}d}" for t in hashtags),
        np.repeat(np.searchsorted(hashtags, tags), np.array(sizes, dtype=np.int64)),
        ts,
    )


def cumulative_counts(
    records: AdoptionRecords, hashtag: str, bin_seconds: int = 3600
) -> list[tuple[int, int, int]]:
    """Per-bin cumulative totals of one hashtag: (bin, events so far, distinct users so far).

    Bins are those of ``bin_records``: they count from the minimum timestamp
    of the whole corpus, so row b describes column b of the hashtag's matrix,
    and the rows run to its last occupied column.
    """
    n, rows, bins = _hashtag_bins(records, hashtag, bin_seconds)
    width = int(bins.max()) + 1
    first = np.full(n, width - 1)
    np.minimum.at(first, rows, bins)
    tweets = np.cumsum(np.bincount(bins, minlength=width))
    users = np.cumsum(np.bincount(first, minlength=width))
    return list(zip(range(width), tweets.tolist(), users.tolist()))


_CSV_CHUNK = 1 << 16  # triplets per formatted write of save_matrix_csv


def save_matrix_csv(matrix: SparseBinaryMatrix, path) -> None:
    """Serialize as coordinate triplets under a two-line N/M header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"N,{matrix.rows}\n")
        fh.write(f"M,{matrix.cols}\n")
        # One %-format per chunk; chunks keep the text of a large matrix off the peak.
        for a in range(0, matrix.nnz, _CSV_CHUNK):
            pairs = np.column_stack((matrix.row[a : a + _CSV_CHUNK], matrix.col[a : a + _CSV_CHUNK]))
            fh.write("%d,%d,1\n" * len(pairs) % tuple(pairs.ravel().tolist()))


def load_matrix_csv(path) -> SparseBinaryMatrix:
    """Inverse of save_matrix_csv, validating the header and every triplet.

    Errors name the file and the 1-based line; a repeated triplet and a count
    of 2**63 or more are errors.
    The exact bytes save_matrix_csv writes are matched by one regex and parsed
    by numpy.  Any other file, and one whose cells are out of range or
    repeated, is read by the line loop, which accepts the other spellings
    (CRLF, blank or padded lines, leading zeros) and names the failing line.
    """
    with open(path, "rb") as fh:
        canonical = _canonical_matrix(fh.read())
    if canonical:
        n, m = int(canonical[1]), int(canonical[2])
        # fromstring takes one separator, so the line ends become commas.
        body = canonical[3].replace(b"\n", b",")
        cells = np.fromstring(body, dtype=np.int64, sep=",").reshape(-1, 3)[:, :2]
        if (cells[:, 0] < n).all() and (cells[:, 1] < m).all():
            matrix = SparseBinaryMatrix(n, m, cells)
            if matrix.nnz == len(cells):
                return matrix
    return _load_matrix_lines(path)


def _load_matrix_lines(path) -> SparseBinaryMatrix:
    """load_matrix_csv line by line: the reference reader, and the one that names errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc

    def bad(lineno: int, problem: str) -> ValueError:
        return ValueError(f"{path}, line {lineno}: {problem}")

    def count(lineno: int, text: str) -> int:
        if not text.isdecimal():
            raise bad(lineno, f"{text!r} is not a non-negative integer")
        try:
            value = int(text)
        except ValueError:  # more digits than int's conversion limit
            value = 2**63
        if value >= 2**63:
            raise bad(lineno, f"{text!r} does not fit int64, counts must be below 2**63")
        return value

    shape = []
    for k, key in enumerate("NM"):
        lineno, text = lines[k] if k < len(lines) else (k + 1, "")
        label, _, value = text.partition(",")
        if label != key:
            raise bad(lineno, f"expected the '{key},<size>' header line, got {text!r}")
        shape.append(count(lineno, value))
    n, m = shape
    first_line: dict[tuple[int, int], int] = {}
    for lineno, text in lines[2:]:
        parts = text.split(",")
        if len(parts) != 3 or parts[2] != "1":
            raise bad(lineno, f"malformed triplet {text!r}, expected '<row>,<col>,1'")
        cell = (count(lineno, parts[0]), count(lineno, parts[1]))
        if cell[0] >= n or cell[1] >= m:
            raise bad(lineno, f"cell {cell} out of range for shape ({n}, {m})")
        if cell in first_line:
            raise bad(lineno, f"duplicate triplet {text!r}, first on line {first_line[cell]}")
        first_line[cell] = lineno
    return SparseBinaryMatrix(n, m, list(first_line))


def save_cumulative_csv(rows, path) -> None:
    """Write cumulative_counts output as CSV with a bin,tweets,users header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin,tweets,users\n")
        for b, tweets, users in rows:
            fh.write(f"{b},{tweets},{users}\n")
