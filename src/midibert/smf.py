"""Standard MIDI File I/O and bar-grid quantization.

Scores live on a fixed metrical grid: onsets snap to 16 sub-beats per 4/4
bar, durations to half sub-beats (1/32 bar, 1..64 units). Quantization ties
round up. Files whose time signature is not a constant 4/4 are rejected.
The parser reads formats 0 and 1 from bytes, honors running status and
declared chunk lengths, and reports errors with byte offsets; it never reads
past a chunk boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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


def velocity_class_of(velocity: int) -> int:
    """Map a MIDI velocity 0..127 to one of six dynamics classes 0..5."""
    if not 0 <= velocity <= 127:
        raise ValueError(f"velocity out of range 0..127: {velocity}")
    for cls, (lo, hi) in enumerate(VELOCITY_BINS):
        if lo <= velocity <= hi:
            return cls
    raise AssertionError("bins cover 0..127")


@dataclass(frozen=True, slots=True)
class RawNote:
    """A note in tick time, straight out of a MIDI file."""

    onset_ticks: int
    duration_ticks: int
    pitch: int
    velocity: int

    def __post_init__(self) -> None:
        if self.onset_ticks < 0:
            raise ValueError(f"negative onset: {self.onset_ticks}")
        if self.duration_ticks <= 0:
            raise ValueError(f"non-positive duration: {self.duration_ticks}")
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch out of range 0..127: {self.pitch}")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity out of range 1..127: {self.velocity}")


@dataclass(frozen=True, slots=True)
class QuantNote:
    """A note on the bar grid.

    sub_beat is 1-based within the bar; duration_units counts half
    sub-beats. velocity_class is present iff the source carried dynamics.
    """

    bar_index: int
    sub_beat: int
    pitch: int
    duration_units: int
    velocity_class: int | None = None

    def __post_init__(self) -> None:
        if self.bar_index < 0:
            raise ValueError(f"negative bar_index: {self.bar_index}")
        if not 1 <= self.sub_beat <= SUB_BEATS_PER_BAR:
            raise ValueError(f"sub_beat out of range 1..16: {self.sub_beat}")
        if not PITCH_MIN <= self.pitch <= PITCH_MAX:
            raise ValueError(
                f"pitch out of range {PITCH_MIN}..{PITCH_MAX}: {self.pitch}"
            )
        if not 1 <= self.duration_units <= DURATION_UNIT_MAX:
            raise ValueError(
                f"duration_units out of range 1..{DURATION_UNIT_MAX}: "
                f"{self.duration_units}"
            )
        if self.velocity_class is not None and not 0 <= self.velocity_class <= 5:
            raise ValueError(f"velocity_class out of range 0..5: {self.velocity_class}")

    @property
    def onset_sub_beats(self) -> int:
        """Global onset in sub-beats from the start of the piece."""
        return self.bar_index * SUB_BEATS_PER_BAR + (self.sub_beat - 1)

    @property
    def onset_units(self) -> int:
        """Global onset in duration units (half sub-beats)."""
        return 2 * self.onset_sub_beats

    @property
    def end_units(self) -> int:
        return self.onset_units + self.duration_units


def note_sort_key(n: QuantNote) -> tuple[int, int, int, int]:
    vc = -1 if n.velocity_class is None else n.velocity_class
    return (n.onset_sub_beats, n.pitch, n.duration_units, vc)


@dataclass(frozen=True, slots=True)
class Score:
    """A quantized piece: notes sorted by (onset, pitch), plus bar count."""

    source_id: str
    notes: tuple[QuantNote, ...]
    num_bars: int

    def __post_init__(self) -> None:
        if self.num_bars < 0:
            raise ValueError(f"negative num_bars: {self.num_bars}")
        limit = self.num_bars * SUB_BEATS_PER_BAR
        prev = None
        for n in self.notes:
            if n.onset_sub_beats >= limit:
                raise ValueError(
                    f"note at bar {n.bar_index} outside num_bars={self.num_bars}"
                )
            key = (n.onset_sub_beats, n.pitch)
            if prev is not None and key < prev:
                raise ValueError("notes not sorted by (onset, pitch)")
            prev = key


def make_score(source_id: str, notes: list[QuantNote], num_bars: int | None = None) -> Score:
    """Sort notes into canonical order and wrap them in a Score.

    num_bars defaults to just enough bars to contain the last note.
    """
    ordered = tuple(sorted(notes, key=note_sort_key))
    if num_bars is None:
        num_bars = (ordered[-1].onset_sub_beats // SUB_BEATS_PER_BAR + 1) if ordered else 0
    return Score(source_id=source_id, notes=ordered, num_bars=num_bars)


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


def parse_smf(data: bytes) -> tuple[list[RawNote], SmfMeta]:
    """Parse format-0/1 bytes into raw notes plus timing metadata.

    Tracks are merged; note-ons pair FIFO per (track, channel, pitch) and a
    velocity-0 note-on counts as a note-off. Unpaired note-ons are an error,
    stray note-offs are dropped. Unknown chunk types are skipped.
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
    notes: list[RawNote] = []
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

    notes.sort(key=lambda n: (n.onset_ticks, n.pitch, n.duration_ticks, n.velocity))
    signatures.sort(key=lambda s: s[0])
    return notes, SmfMeta(ticks_per_quarter=division, time_signatures=tuple(signatures))


def _parse_track(
    data: bytes,
    start: int,
    end: int,
    notes: list[RawNote],
    signatures: list[tuple[int, int, int]],
) -> None:
    pos = start
    tick = 0
    running: int | None = None
    # FIFO of (onset_tick, velocity, onset_offset) per (channel, pitch)
    open_notes: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def close(channel: int, pitch: int, off_tick: int) -> None:
        stack = open_notes.get((channel, pitch))
        if not stack:
            return  # stray note-off, dropped
        on_tick, velocity, _ = stack.pop(0)
        duration = max(1, off_tick - on_tick)  # zero-length pairs clamp to 1 tick
        notes.append(RawNote(on_tick, duration, pitch, velocity))

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
                open_notes.setdefault((channel, first), []).append(
                    (tick, second, event_offset)
                )
            elif kind == 0x80 or (kind == 0x90 and second == 0):
                close(channel, first, tick)
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

def _round_half_up(numerator: int, denominator: int) -> int:
    # exact rational round-half-up; ties round up by construction
    return (2 * numerator + denominator) // (2 * denominator)


def quantize(raw_notes: list[RawNote], ticks_per_quarter: int, *, source_id: str = "") -> Score:
    """Snap raw notes onto the sub-beat grid.

    Onsets round to the nearest sub-beat (tpq/4 ticks), durations to the
    nearest half sub-beat (tpq/8), both half-up; durations clamp to 1..64
    units and pitches to the codec range. num_bars is just enough bars to
    contain the last onset.
    """
    if ticks_per_quarter <= 0:
        raise ValueError(f"ticks_per_quarter must be positive: {ticks_per_quarter}")
    quantized: list[QuantNote] = []
    for note in raw_notes:
        onset = _round_half_up(note.onset_ticks * 4, ticks_per_quarter)
        units = _round_half_up(note.duration_ticks * 8, ticks_per_quarter)
        units = min(max(units, 1), DURATION_UNIT_MAX)
        pitch = min(max(note.pitch, PITCH_MIN), PITCH_MAX)
        quantized.append(
            QuantNote(
                bar_index=onset // SUB_BEATS_PER_BAR,
                sub_beat=onset % SUB_BEATS_PER_BAR + 1,
                pitch=pitch,
                duration_units=units,
                velocity_class=velocity_class_of(note.velocity),
            )
        )
    return make_score(source_id, quantized)


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

    Note-on velocity is the dynamics-bin midpoint when velocity_class is
    present, else DEFAULT_VELOCITY. Trailing bars with no notes are not
    representable and will not survive a read-back.
    """
    sub_beat_ticks = WRITE_TPQ // 4
    unit_ticks = WRITE_TPQ // 8

    # Overlapping notes of one pitch are ambiguous on a single channel
    # (on/off pairing is FIFO), so each gets the lowest channel that is
    # free for that pitch. Score order is already (onset, pitch).
    active: dict[int, list[tuple[int, int]]] = {}  # pitch -> [(end_tick, channel)]
    events: list[tuple[int, int, int, int, int]] = []  # (tick, order, pitch, channel, velocity)
    for note in score.notes:
        on = note.onset_sub_beats * sub_beat_ticks
        off = on + note.duration_units * unit_ticks
        velocity = (
            VELOCITY_MIDPOINTS[note.velocity_class]
            if note.velocity_class is not None
            else DEFAULT_VELOCITY
        )
        still = [(end, ch) for end, ch in active.get(note.pitch, []) if end > on]
        used = {ch for _, ch in still}
        channel = next((ch for ch in range(16) if ch not in used), None)
        if channel is None:
            raise SmfError(f"more than 16 overlapping notes at pitch {note.pitch}")
        still.append((off, channel))
        active[note.pitch] = still
        events.append((on, 1, note.pitch, channel, velocity))
        events.append((off, 0, note.pitch, channel, 0))  # offs first at equal ticks
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
