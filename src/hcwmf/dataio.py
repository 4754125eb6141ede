"""Record ingestion, time binning, serialization, and synthetic corpora.

Adoption events travel as newline-delimited JSON objects with fields
"user", "hashtag", and integer "ts" (seconds).  Binning turns the events of
one hashtag into a binary user-by-time matrix.  The synthetic generator
produces seeded corpora whose shape mimics a trending hashtag: adoption
onsets concentrated early, re-adoption probability decaying afterwards.
"""

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
# event is valid, so neither needs checking.
_ID = rb'([\x20\x21\x23-\x5b\x5d-\x7e]+)'
_canonical_record = re.compile(
    rb'\{"user":"' + _ID + rb'","hashtag":"' + _ID + rb'","ts":(0|[1-9][0-9]{0,17})\}(?:\r?\n)?'
).fullmatch


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


@dataclass(frozen=True)
class AdoptionRecords:
    """Immutable sequence of (user_id, hashtag, timestamp-in-seconds) events."""

    events: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        for ev in self.events:
            if len(ev) != 3:
                raise ValueError(f"event must be (user, hashtag, ts), got {ev!r}")
            problem = _event_problem(*ev)
            if problem:
                raise ValueError(problem)

    @classmethod
    def _checked(cls, events: tuple) -> "AdoptionRecords":
        """Wrap events that are already known to be valid, without checking them again."""
        records = object.__new__(cls)
        object.__setattr__(records, "events", events)
        return records

    @classmethod
    def of(cls, events) -> "AdoptionRecords":
        return cls(tuple((u, h, int(t)) for u, h, t in events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


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


def parse_records(stream) -> tuple[AdoptionRecords, int]:
    """Read newline-delimited JSON events; returns (records, skipped count).

    Accepts a text or byte stream (anything iterable by line).  Lines that
    are not valid JSON objects with string "user"/"hashtag" and non-negative
    integer "ts" are skipped with a warning and counted, never silently
    dropped.  Blank lines are ignored without counting.  Each line is read
    exactly as ``json.loads`` reads it once stripped; a bytes line in the
    compact form ``write_records`` emits is matched by one regex instead, and
    its ids are decoded once per parse and shared between events.
    """
    try:
        lines = iter(stream)
    except TypeError:
        raise ValueError(f"stream is not readable line by line: {stream!r}") from None
    events = []
    skipped = 0
    ids: dict[bytes, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            canonical = _canonical_record(raw)
            if canonical:
                user, hashtag, ts = canonical.groups()
                if user not in ids:
                    ids[user] = user.decode("ascii")
                if hashtag not in ids:
                    ids[hashtag] = hashtag.decode("ascii")
                events.append((ids[user], ids[hashtag], int(ts)))
                continue
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                warnings.warn(f"line {lineno}: not valid UTF-8, skipped", stacklevel=2)
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
            warnings.warn(f"line {lineno}: not valid JSON, skipped", stacklevel=2)
            skipped += 1
            continue
        if not isinstance(obj, dict) or _event_problem(obj.get("user"), obj.get("hashtag"), obj.get("ts")):
            warnings.warn(f"line {lineno}: malformed record, skipped", stacklevel=2)
            skipped += 1
            continue
        events.append((obj["user"], obj["hashtag"], obj["ts"]))
    return AdoptionRecords._checked(tuple(events)), skipped


def write_records(records: AdoptionRecords, path) -> None:
    """Write events as newline-delimited JSON, one object per line.

    Each line is ``json.dumps`` of ``{"user": ..., "hashtag": ..., "ts": ...}``
    with compact separators.  Each distinct id is quoted once, by
    ``json.dumps``, and ``ts`` is written by ``int.__repr__``, as json does.
    """
    quoted = {s: json.dumps(s) for s in {u for u, _, _ in records} | {h for _, h, _ in records}}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, hashtag, ts in records:
            fh.write(f'{{"user":{quoted[user]},"hashtag":{quoted[hashtag]},"ts":{int.__repr__(ts)}}}\n')


def _hashtag_bins(records: AdoptionRecords, hashtag: str, bin_seconds: int):
    """(user count, each event's row, each event's bin) of one hashtag: the one binning
    rule, which ``bin_records`` and ``cumulative_counts`` share."""
    if bin_seconds <= 0:
        raise ValueError(f"bin_seconds must be > 0, got {bin_seconds}")
    if len(records) == 0:
        raise ValueError("cannot bin an empty record set")
    min_ts = min(ts for _, _, ts in records)
    tagged = [(user, ts) for user, h, ts in records if h == hashtag]
    if not tagged:
        raise ValueError(f"no events for hashtag {hashtag!r}")
    users = sorted({user for user, _ in tagged})
    row_of = {u: i for i, u in enumerate(users)}
    rows = np.fromiter((row_of[u] for u, _ in tagged), dtype=np.int64, count=len(tagged))
    try:
        ts = np.fromiter((t for _, t in tagged), dtype=np.int64, count=len(tagged))
    except OverflowError:
        big = next(t for _, t in tagged if t >= 2**63)
        raise ValueError(f"timestamp {big} is too large: timestamps must be below 2**63") from None
    return len(users), rows, (ts - min_ts) // bin_seconds


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


def _user_ids(n_users: int) -> list[str]:
    width = len(str(n_users - 1))
    return [f"u{i:0{width}d}" for i in range(n_users)]


def _emit_user_events(rng, cfg: SynthConfig, scale: float) -> list[int]:
    """Adopted bin indices for one user; ``scale`` multiplies repeat_prob."""
    onset = min(int(rng.geometric(cfg.trend_decay)) - 1, cfg.n_bins - 1)
    bins = [onset]
    for k in range(onset + 1, cfg.n_bins):
        p = scale * cfg.repeat_prob * math.exp(-cfg.repeat_decay * (k - onset - 1))
        if rng.random() < p:
            bins.append(k)
    return bins


def generate_synthetic(
    cfg: SynthConfig, hashtag: str = "h0", bin_seconds: int = 3600
) -> AdoptionRecords:
    """Seeded single-hashtag corpus: every user adopts once, then re-adopts
    with a per-bin probability that decays after onset."""
    rng = np.random.default_rng(cfg.seed)
    events = []
    for uid in _user_ids(cfg.n_users):
        for b in _emit_user_events(rng, cfg, scale=1.0):
            events.append((uid, hashtag, b * bin_seconds))
    return AdoptionRecords(tuple(events))


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
    """
    if n_hashtags < 1:
        raise ValueError(f"n_hashtags must be >= 1, got {n_hashtags}")
    if not 0.0 < participation <= 1.0:
        raise ValueError(f"participation must be in (0, 1], got {participation}")
    master = np.random.default_rng(cfg.seed)
    propensity = master.uniform(0.5, 1.0, size=cfg.n_users)
    uids = _user_ids(cfg.n_users)
    tag_width = len(str(n_hashtags - 1))
    events = []
    for t in range(n_hashtags):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1 + t]))
        tag = f"h{t:0{tag_width}d}"
        for i, uid in enumerate(uids):
            if rng.random() >= participation:
                continue
            for b in _emit_user_events(rng, cfg, scale=float(propensity[i])):
                events.append((uid, tag, b * bin_seconds))
    return AdoptionRecords(tuple(events))


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
