"""WAV ingestion and corpus manifests.

WAV files are read and written by a small RIFF codec of its own, built on
``struct`` and numpy. It reads mono little-endian RIFF WAVE files, PCM 16-bit
or IEEE 32-bit float, in a plain or a ``WAVE_FORMAT_EXTENSIBLE`` ``fmt ``
chunk; every other chunk is skipped, with its pad byte. Anything else (RIFX
or RF64, another sample encoding, more than one channel, a missing ``fmt `` or
``data`` chunk, a chunk that runs past the end of the file) is an
``AudioIngestError`` naming the file and the reason. It writes 32-bit float.
No resampling ever happens: an utterance whose rate differs from the declared
corpus rate is an error, because silently resampling would change what the
dictionary's filters mean.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioIngestError, is_number

INT16_SCALE = 32768.0

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The sample encodings read, by (format tag, bits per sample).
_ENCODINGS = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}
# A WAVE_FORMAT_EXTENSIBLE sub-format GUID is the format tag followed by
# these 12 bytes (RFC 2361).
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")
# What save_wav writes before the samples: RIFF header, an 18-byte ``fmt ``
# chunk (IEEE float, mono, cbSize 0), ``fact`` (the sample count), then the
# ``data`` chunk header.
_FLOAT32_HEADER = struct.Struct("<4sI4s" "4sIHHIIHHH" "4sII" "4sI")
# The header's byte-rate field holds 4 * rate, and its RIFF size field the
# file's length less 8, in 32 bits each.
_MAX_RATE = 0xFFFFFFFF // 4
_MAX_SAMPLES = (0xFFFFFFFF - (_FLOAT32_HEADER.size - 8)) // 4


@dataclass(frozen=True)
class Utterance:
    """A mono signal with amplitudes in [-1, 1]."""

    id: str
    samples: np.ndarray
    sample_rate: int
    label: str | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise AudioIngestError(f"utterance {self.id!r}: expected non-empty mono samples")
        if not (is_number(self.sample_rate, int) and self.sample_rate > 0):
            raise AudioIngestError(f"utterance {self.id!r}: sample rate must be a positive "
                                   f"whole number of Hz, got {self.sample_rate!r}")
        peak = float(np.max(np.abs(samples)))
        if not np.isfinite(peak) or peak > 1.0:
            raise AudioIngestError(
                f"utterance {self.id!r}: peak amplitude {peak} outside [-1, 1] "
                "(decode with normalization enabled, or fix the file)"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    id: str
    label: str | None


def _read_fmt(path, body: bytes) -> tuple:
    """(sample rate, sample dtype) of a ``fmt `` chunk's body."""
    if len(body) < _FMT.size:
        raise AudioIngestError(f"{path}: 'fmt ' chunk of {len(body)} bytes, expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = _FMT.unpack_from(body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
            raise AudioIngestError(f"{path}: WAVE_FORMAT_EXTENSIBLE 'fmt ' chunk without "
                                   "its 22-byte extension")
        guid = body[24:40]
        if guid[4:] != _GUID_TAIL:
            raise AudioIngestError(f"{path}: unsupported sub-format GUID {guid.hex()}; "
                                   "use PCM 16-bit or 32-bit float")
        tag = struct.unpack_from("<I", guid)[0]
    if channels != 1:
        raise AudioIngestError(f"{path}: {channels}-channel audio is not supported, expected mono")
    dtype = _ENCODINGS.get((tag, bits))
    if dtype is None:
        kind = {_PCM: "PCM", _IEEE_FLOAT: "IEEE float"}.get(tag, f"format tag {tag:#06x}")
        raise AudioIngestError(f"{path}: unsupported sample encoding {kind} {bits}-bit; "
                               "use PCM 16-bit or 32-bit float")
    if block_align != dtype.itemsize:
        raise AudioIngestError(f"{path}: block align {block_align} does not fit mono "
                               f"{bits}-bit samples")
    if tag == _PCM and byte_rate != rate * block_align:
        raise AudioIngestError(f"{path}: byte rate {byte_rate} is not sample rate {rate} "
                               f"times block align {block_align}")
    return rate, dtype


def _read_wav(path, buf: bytes) -> tuple:
    """(sample rate, samples) of a WAV file's bytes ``buf``; the samples are a
    read-only view of ``buf`` in the file's dtype."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        if buf[:4] in (b"RIFX", b"RF64"):
            raise AudioIngestError(f"{path}: {buf[:4].decode()} files are not supported, "
                                   "expected a little-endian RIFF WAVE file")
        raise AudioIngestError(f"{path}: not a RIFF WAVE file")
    fmt = None
    pos = 12
    while pos + _CHUNK.size <= len(buf):
        chunk_id, size = _CHUNK.unpack_from(buf, pos)
        pos += _CHUNK.size
        if pos + size > len(buf):
            raise AudioIngestError(f"{path}: {chunk_id.decode('latin-1')!r} chunk of {size} "
                                   f"bytes runs past the end of the file ({len(buf) - pos} left)")
        if chunk_id == b"fmt ":
            fmt = _read_fmt(path, buf[pos:pos + size])
        elif chunk_id == b"data":
            if fmt is None:
                break
            rate, dtype = fmt
            return rate, np.frombuffer(buf, dtype, size // dtype.itemsize, pos)
        pos += size + size % 2
    raise AudioIngestError(f"{path}: no 'fmt ' chunk before the 'data' chunk" if fmt is None
                           else f"{path}: no 'data' chunk")


def load_wav(path, *, utt_id: str | None = None, label: str | None = None,
             normalize: bool = False) -> Utterance:
    """Decode one mono WAV file (PCM 16-bit or 32-bit float) into an Utterance.

    16-bit samples are scaled by 1/32768. With ``normalize`` the waveform is
    divided by its peak magnitude after decoding.
    """
    path = Path(path)
    try:
        buf = path.read_bytes()
    except FileNotFoundError:
        raise AudioIngestError(f"{path}: file not found") from None
    except OSError as exc:
        raise AudioIngestError(f"{path}: cannot read ({exc.strerror})") from exc
    rate, data = _read_wav(path, buf)
    if data.dtype == np.int16:
        samples = data.astype(float) / INT16_SCALE
    else:
        samples = data.astype(float)
    if normalize:
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        if peak > 0.0:
            samples = samples / peak
    return Utterance(
        id=utt_id if utt_id is not None else path.stem,
        samples=samples,
        sample_rate=rate,
        label=label,
    )


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write a mono signal as a 32-bit float WAV file.

    The file holds a ``fmt `` chunk with cbSize 0, a ``fact`` chunk and the
    ``data`` chunk: the bytes ``scipy.io.wavfile.write`` writes for a mono
    float32 array. ``sample_rate`` must be a positive whole number of Hz
    (``errors.is_number``) that the header's 32-bit byte-rate field can hold.
    """
    if not (is_number(sample_rate, int) and sample_rate > 0):
        raise AudioIngestError(f"{path}: sample rate must be a positive whole number of Hz, "
                               f"got {sample_rate!r}")
    if sample_rate > _MAX_RATE:
        raise AudioIngestError(f"{path}: sample rate {sample_rate!r} Hz does not fit a WAV "
                               f"header, at most {_MAX_RATE}")
    samples = np.asarray(samples, dtype=np.float32)
    if samples.ndim != 1:
        raise AudioIngestError(f"{path}: expected a mono signal, got shape {samples.shape}")
    if samples.size > _MAX_SAMPLES:
        raise AudioIngestError(f"{path}: {samples.size} samples do not fit a RIFF WAV file, "
                               f"at most {_MAX_SAMPLES}")
    rate, nbytes = int(sample_rate), 4 * samples.size
    header = _FLOAT32_HEADER.pack(
        b"RIFF", _FLOAT32_HEADER.size - 8 + nbytes, b"WAVE",
        b"fmt ", 18, _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, samples.size,
        b"data", nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.astype("<f4", copy=False).tobytes())


def parse_manifest(path) -> tuple:
    """Parse a ``path,id,label`` CSV manifest into its ManifestEntry tuple;
    relative paths resolve against it."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise AudioIngestError(f"{path}: manifest is missing its header row") from None
            rows = list(reader)
    except (OSError, ValueError) as exc:
        raise AudioIngestError(f"{path}: cannot read manifest ({exc})") from exc
    header = [h.strip().lower() for h in header]
    if header[:2] != ["path", "id"]:
        raise AudioIngestError(
            f"{path}: manifest header must start with 'path,id[,label]', got {header}"
        )

    entries = []
    seen_paths = set()
    for lineno, row in enumerate(rows, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        file_path = Path(row[0].strip())
        if not file_path.is_absolute():
            file_path = path.parent / file_path
        if file_path in seen_paths:
            raise AudioIngestError(f"{path}:{lineno}: duplicate path {file_path}")
        seen_paths.add(file_path)
        utt_id = row[1].strip() if len(row) > 1 and row[1].strip() else file_path.stem
        label = row[2].strip() if len(row) > 2 and row[2].strip() else None
        entries.append(ManifestEntry(path=file_path, id=utt_id, label=label))
    return tuple(entries)


def load_corpus(entries, sample_rate: int, *, normalize: bool = False):
    """Load ManifestEntry ``entries``, as ``parse_manifest`` gives them, enforcing
    the declared sample rate on each file.

    Missing files are reported collectively, and so are files at another
    rate; utterances come back in entry order.
    """
    if sample_rate <= 0:
        raise AudioIngestError(f"declared sample rate must be positive, got {sample_rate}")
    missing = [str(e.path) for e in entries if not e.path.exists()]
    if missing:
        raise AudioIngestError("missing corpus files: " + ", ".join(missing))

    utterances = []
    mismatched = []
    for entry in entries:
        utt = load_wav(entry.path, utt_id=entry.id, label=entry.label, normalize=normalize)
        if utt.sample_rate != sample_rate:
            mismatched.append(f"{entry.path} ({utt.sample_rate} Hz)")
            continue
        utterances.append(utt)
    if mismatched:
        raise AudioIngestError(
            f"sample rate mismatch against declared {sample_rate} Hz: " + ", ".join(mismatched)
        )
    return utterances
