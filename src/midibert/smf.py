"""Standard MIDI File I/O and bar-grid quantization.

Scores live on a fixed metrical grid: onsets snap to 16 sub-beats per 4/4
bar, durations to half sub-beats (1/32 bar, 1..64 units). Quantization ties
round up. Files whose time signature is not a constant 4/4 are rejected.
The parser reads formats 0 and 1 from bytes, honors running status and
declared chunk lengths, and reports errors with byte offsets; it never reads
past a chunk boundary. Notes are int64 rows from the parser on.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

SUB_BEATS_PER_BAR = 16
DURATION_UNITS_PER_BAR = 32      # duration unit = half sub-beat
DURATION_UNIT_MAX = 64           # two bars, the codec ceiling
PITCH_MIN = 22
PITCH_MAX = 107                  # 86 pitches; out-of-range input clamps
WRITE_TPQ = 480                  # sub-beat = 120 ticks, duration unit = 60

VELOCITY_BINS = ((0, 31), (32, 47), (48, 63), (64, 79), (80, 95), (96, 127))
VELOCITY_NAMES = ("pp", "p", "mp", "mf", "f", "ff")
# round-half-up midpoints; velocity_class_of(midpoint) recovers the class
VELOCITY_MIDPOINTS = tuple((lo + hi + 1) // 2 for lo, hi in VELOCITY_BINS)

NOTE_FIELDS = ("bar", "sub_beat", "pitch", "duration", "velocity_class")
NO_VELOCITY = -1                 # velocity_class of a note without dynamics

_DEFAULT_TEMPO_USPQ = 500_000    # 120 bpm, written into every output file
DEFAULT_VELOCITY = 64            # written for notes without a velocity class


class SmfError(ValueError):
    """Base for everything this module can reject."""


class SmfParseError(SmfError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnsupportedMeterError(SmfError):
    pass


def velocity_class_of(velocity):
    """Map a MIDI velocity 0..127, or an int array of them, to the six
    dynamics classes 0..5."""
    velocity = np.asarray(velocity)
    bad = velocity[(velocity < 0) | (velocity > 127)]
    if bad.size:
        raise ValueError(f"velocity out of range 0..127: {bad[0]}")
    classes = np.searchsorted([hi for _, hi in VELOCITY_BINS], velocity)
    return int(classes) if classes.ndim == 0 else classes


def note_rows(notes) -> np.ndarray:
    """A new (N, 5) int64 array of note rows; `notes` may be empty."""
    rows = np.array(notes, dtype=np.int64)
    if rows.size == 0:
        rows = rows.reshape(0, len(NOTE_FIELDS))
    if rows.ndim != 2 or rows.shape[1] != len(NOTE_FIELDS):
        raise ValueError(f"notes must be rows of {NOTE_FIELDS}, got shape {rows.shape}")
    return rows


def onset_sub_beats(notes: np.ndarray) -> np.ndarray:
    """Each note's global onset in sub-beats from the start of the piece."""
    return notes[:, 0] * SUB_BEATS_PER_BAR + notes[:, 1] - 1


@dataclass(frozen=True, slots=True, eq=False)
class Score:
    """A quantized piece: a read-only (N, 5) int64 array of note rows sorted
    by (onset, pitch), plus the bar count.

    A row is (bar, sub_beat, pitch, duration, velocity_class): sub_beat is
    1-based within the bar, duration counts half sub-beats, and
    velocity_class is NO_VELOCITY unless the source carried dynamics.
    """

    source_id: str
    notes: np.ndarray
    num_bars: int

    def __post_init__(self) -> None:
        notes = note_rows(self.notes)
        notes.flags.writeable = False
        object.__setattr__(self, "notes", notes)
        if self.num_bars < 0:
            raise ValueError(f"negative num_bars: {self.num_bars}")
        lowest = (0, 1, PITCH_MIN, 1, NO_VELOCITY)
        highest = (self.num_bars - 1, SUB_BEATS_PER_BAR, PITCH_MAX, DURATION_UNIT_MAX,
                   len(VELOCITY_BINS) - 1)
        outside = (notes < lowest) | (notes > highest)
        if outside.any():
            i, column = np.argwhere(outside)[0]
            raise ValueError(
                f"note {i}: {NOTE_FIELDS[column]} {notes[i, column]} outside "
                f"{lowest[column]}..{highest[column]}"
            )
        key = onset_sub_beats(notes) * (PITCH_MAX + 1) + notes[:, 2]
        if (key[1:] < key[:-1]).any():
            raise ValueError("notes not sorted by (onset, pitch)")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Score) and self.source_id == other.source_id
                and self.num_bars == other.num_bars and np.array_equal(self.notes, other.notes))


def make_score(source_id: str, notes, num_bars: int | None = None) -> Score:
    """Sort note rows into canonical order, (onset, pitch, duration,
    velocity_class), and wrap them in a Score.

    num_bars defaults to just enough bars to contain the last note.
    """
    rows = note_rows(notes)
    rows = rows[np.lexsort(rows.T[::-1])]
    if num_bars is None:
        num_bars = int(rows[-1, 0]) + 1 if len(rows) else 0
    return Score(source_id=source_id, notes=rows, num_bars=num_bars)


@dataclass(frozen=True, slots=True)
class SmfMeta:
    ticks_per_quarter: int
    # (tick, numerator, denominator) for every time-signature event seen
    time_signatures: tuple[tuple[int, int, int], ...]


# --- reading ---------------------------------------------------------------

def _read_vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    # variable-length quantity, at most 4 bytes per the file format
    value = 0
    for _ in range(4):
        if pos >= end:
            raise SmfParseError("truncated variable-length quantity", pos)
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise SmfParseError("variable-length quantity longer than 4 bytes", pos)


def _read_data_byte(data: bytes, pos: int, end: int, what: str) -> tuple[int, int]:
    if pos >= end:
        raise SmfParseError(f"track ends inside {what}", pos)
    byte = data[pos]
    if byte & 0x80:
        raise SmfParseError(f"status byte where {what} expected", pos)
    return byte, pos + 1


_HEADER = struct.Struct(">4sL")
_MTHD_BODY = struct.Struct(">HHH")


def parse_smf(data: bytes) -> tuple[np.ndarray, SmfMeta]:
    """Parse format-0/1 bytes into raw notes plus timing metadata.

    The notes are an (N, 4) int64 array of (onset tick, duration ticks,
    pitch, velocity) rows in ascending order. Tracks are merged; note-ons
    pair FIFO per (track, channel, pitch) and a velocity-0 note-on counts as
    a note-off. Unpaired note-ons are an error, stray note-offs are dropped.
    Unknown chunk types are skipped.
    """
    if len(data) < _HEADER.size:
        raise SmfParseError("file shorter than a chunk header", 0)
    tag, length = _HEADER.unpack_from(data, 0)
    if tag != b"MThd":
        raise SmfParseError("missing MThd header", 0)
    if length < 6:
        raise SmfParseError(f"MThd length {length} < 6", 4)
    if len(data) < 8 + length:
        raise SmfParseError("truncated MThd chunk", len(data))
    fmt, ntrks, division = _MTHD_BODY.unpack_from(data, 8)
    if fmt not in (0, 1):
        raise SmfParseError(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise SmfParseError("SMPTE division not supported", 12)
    if division == 0:
        raise SmfParseError("zero ticks per quarter", 12)

    pos = 8 + length
    notes: list[tuple[int, int, int, int]] = []
    signatures: list[tuple[int, int, int]] = []
    tracks_seen = 0
    while tracks_seen < ntrks:
        if pos + _HEADER.size > len(data):
            raise SmfParseError(
                f"expected {ntrks} track chunks, found {tracks_seen}", pos
            )
        tag, length = _HEADER.unpack_from(data, pos)
        body_start = pos + _HEADER.size
        body_end = body_start + length
        if body_end > len(data):
            raise SmfParseError("truncated track chunk", pos)
        if tag == b"MTrk":
            _parse_track(data, body_start, body_end, notes, signatures)
            tracks_seen += 1
        # alien chunk types are allowed and skipped wholesale
        pos = body_end

    rows = np.array(notes, dtype=np.int64).reshape(-1, 4)
    rows = rows[np.lexsort((rows[:, 3], rows[:, 1], rows[:, 2], rows[:, 0]))]
    signatures.sort(key=lambda s: s[0])
    return rows, SmfMeta(ticks_per_quarter=division, time_signatures=tuple(signatures))


def _parse_track(
    data: bytes,
    start: int,
    end: int,
    notes: list[tuple[int, int, int, int]],
    signatures: list[tuple[int, int, int]],
) -> None:
    pos = start
    tick = 0
    running: int | None = None
    # FIFO of (onset_tick, velocity, onset_offset) per (channel, pitch)
    open_notes: dict[tuple[int, int], deque[tuple[int, int, int]]] = {}

    while pos < end:
        delta, pos = _read_vlq(data, pos, end)
        tick += delta
        if pos >= end:
            raise SmfParseError("track ends after delta time", pos)
        event_offset = pos
        byte = data[pos]
        if byte & 0x80:
            status = byte
            pos += 1
            if status < 0xF0:
                running = status
        else:
            if running is None:
                raise SmfParseError("data byte with no running status", pos)
            status = running

        if status >= 0xF0:
            running = None  # system messages cancel running status
            if status == 0xFF:
                if pos >= end:
                    raise SmfParseError("truncated meta event", pos)
                meta_type = data[pos]
                pos += 1
                length, pos = _read_vlq(data, pos, end)
                if pos + length > end:
                    raise SmfParseError("meta event runs past track end", pos)
                payload = data[pos : pos + length]
                pos += length
                if meta_type == 0x58:
                    if length < 2:
                        raise SmfParseError("time-signature event too short", event_offset)
                    signatures.append((tick, payload[0], 1 << payload[1]))
                elif meta_type == 0x2F:
                    break  # end of track; any slack inside the chunk is skipped
            elif status in (0xF0, 0xF7):
                length, pos = _read_vlq(data, pos, end)
                if pos + length > end:
                    raise SmfParseError("sysex event runs past track end", pos)
                pos += length
            else:
                raise SmfParseError(f"unsupported system message 0x{status:02X}", event_offset)
            continue

        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            first, pos = _read_data_byte(data, pos, end, "event data")
            second, pos = _read_data_byte(data, pos, end, "event data")
            if kind == 0x90 and second > 0:
                open_notes.setdefault((channel, first), deque()).append(
                    (tick, second, event_offset)
                )
            elif kind == 0x80 or (kind == 0x90 and second == 0):
                waiting = open_notes.get((channel, first))
                if waiting:  # a stray note-off is dropped
                    on_tick, velocity, _ = waiting.popleft()
                    # zero-length pairs clamp to 1 tick
                    notes.append((on_tick, max(1, tick - on_tick), first, velocity))
        elif kind in (0xC0, 0xD0):
            _, pos = _read_data_byte(data, pos, end, "event data")
        else:
            raise SmfParseError(f"unknown event status 0x{status:02X}", event_offset)

    for (channel, pitch), stack in open_notes.items():
        if stack:
            raise SmfParseError(
                f"unpaired note-on pitch {pitch} channel {channel}", stack[0][2]
            )


def check_meter(meta: SmfMeta) -> None:
    """Reject anything that is not constant 4/4."""
    odd = sorted({(n, d) for _, n, d in meta.time_signatures if (n, d) != (4, 4)})
    if odd:
        shown = ", ".join(f"{n}/{d}" for n, d in odd)
        raise UnsupportedMeterError(f"not in constant 4/4 (found {shown})")


# --- quantization ----------------------------------------------------------

def quantize(raw_notes, ticks_per_quarter: int, *, source_id: str = "") -> Score:
    """Snap raw note rows, as parse_smf returns them, onto the sub-beat grid.

    Onsets round to the nearest sub-beat (tpq/4 ticks), durations to the
    nearest half sub-beat (tpq/8), both half-up; durations clamp to 1..64
    units and pitches to the codec range. num_bars is just enough bars to
    contain the last onset.
    """
    if ticks_per_quarter <= 0:
        raise ValueError(f"ticks_per_quarter must be positive: {ticks_per_quarter}")
    ticks = np.array(raw_notes, dtype=np.int64).reshape(-1, 4)
    onset_ticks, duration_ticks, pitch, velocity = ticks.T
    # exact half-up rounding of n/d, ties up: (2n + d) // 2d
    onset = (8 * onset_ticks + ticks_per_quarter) // (2 * ticks_per_quarter)
    units = (16 * duration_ticks + ticks_per_quarter) // (2 * ticks_per_quarter)
    return make_score(source_id, np.stack([
        onset // SUB_BEATS_PER_BAR, onset % SUB_BEATS_PER_BAR + 1, pitch.clip(PITCH_MIN, PITCH_MAX),
        units.clip(1, DURATION_UNIT_MAX), velocity_class_of(velocity),
    ], axis=1))


# --- writing ---------------------------------------------------------------

def _vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def write_smf(score: Score) -> bytes:
    """Serialize a Score as a single-track format-0 file at 480 tpq.

    Note-on velocity is the dynamics-bin midpoint of a note's
    velocity_class, or DEFAULT_VELOCITY for NO_VELOCITY. Trailing bars with
    no notes are not representable and will not survive a read-back.
    """
    sub_beat_ticks = WRITE_TPQ // 4
    unit_ticks = WRITE_TPQ // 8

    # Overlapping notes of one pitch are ambiguous on a single channel
    # (on/off pairing is FIFO), so each gets the lowest channel that is
    # free for that pitch. Score order is already (onset, pitch).
    active: dict[int, list[tuple[int, int]]] = {}  # pitch -> [(end_tick, channel)]
    events: list[tuple[int, int, int, int, int]] = []  # (tick, order, pitch, channel, velocity)
    onsets = (onset_sub_beats(score.notes) * sub_beat_ticks).tolist()
    for on, (_, _, pitch, units, velocity_class) in zip(onsets, score.notes.tolist()):
        off = on + units * unit_ticks
        velocity = (
            DEFAULT_VELOCITY if velocity_class == NO_VELOCITY
            else VELOCITY_MIDPOINTS[velocity_class]
        )
        still = [(end, ch) for end, ch in active.get(pitch, []) if end > on]
        used = {ch for _, ch in still}
        channel = next((ch for ch in range(16) if ch not in used), None)
        if channel is None:
            raise SmfError(f"more than 16 overlapping notes at pitch {pitch}")
        still.append((off, channel))
        active[pitch] = still
        events.append((on, 1, pitch, channel, velocity))
        events.append((off, 0, pitch, channel, 0))  # offs first at equal ticks
    events.sort()

    track = bytearray()
    track += _vlq(0) + bytes((0xFF, 0x58, 0x04, 4, 2, 24, 8))         # 4/4
    track += _vlq(0) + bytes((0xFF, 0x51, 0x03)) + _DEFAULT_TEMPO_USPQ.to_bytes(3, "big")
    tick = 0
    for event_tick, order, pitch, channel, velocity in events:
        track += _vlq(event_tick - tick)
        tick = event_tick
        status = (0x90 if order == 1 else 0x80) | channel
        track += bytes((status, pitch, velocity))
    track += _vlq(0) + bytes((0xFF, 0x2F, 0x00))

    out = bytearray()
    out += _HEADER.pack(b"MThd", 6) + _MTHD_BODY.pack(0, 1, WRITE_TPQ)
    out += _HEADER.pack(b"MTrk", len(track)) + track
    return bytes(out)


def score_from_bytes(data: bytes, *, source_id: str = "") -> Score:
    """parse + meter check + quantize in one step."""
    raw, meta = parse_smf(data)
    check_meter(meta)
    return quantize(raw, meta.ticks_per_quarter, source_id=source_id)
