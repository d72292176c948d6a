"""WAV ingestion and corpus manifests.

Only mono RIFF WAV files are accepted, PCM 16-bit or IEEE 32-bit float, and
no resampling ever happens: an utterance whose rate differs from the declared
corpus rate is an error, because silently resampling would change what the
dictionary's filters mean.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import AudioIngestError, is_number

INT16_SCALE = 32768.0


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


def load_wav(path, *, utt_id: str | None = None, label: str | None = None,
             normalize: bool = False) -> Utterance:
    """Decode one mono WAV file (PCM 16-bit or 32-bit float) into an Utterance.

    16-bit samples are scaled by 1/32768. With ``normalize`` the waveform is
    divided by its peak magnitude after decoding.
    """
    path = Path(path)
    try:
        rate, data = wavfile.read(str(path))
    except FileNotFoundError:
        raise AudioIngestError(f"{path}: file not found") from None
    except Exception as exc:
        raise AudioIngestError(f"{path}: cannot decode WAV ({exc})") from exc
    if data.ndim != 1:
        raise AudioIngestError(
            f"{path}: {data.shape[1]}-channel audio is not supported, expected mono"
        )
    if data.dtype == np.int16:
        samples = data.astype(float) / INT16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(float)
    else:
        raise AudioIngestError(
            f"{path}: unsupported sample encoding {data.dtype}; "
            "use PCM 16-bit or 32-bit float"
        )
    if normalize:
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        if peak > 0.0:
            samples = samples / peak
    return Utterance(
        id=utt_id if utt_id is not None else path.stem,
        samples=samples,
        sample_rate=int(rate),
        label=label,
    )


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write a mono signal as a 32-bit float WAV file."""
    samples = np.asarray(samples, dtype=np.float32)
    if samples.ndim != 1:
        raise AudioIngestError(f"expected a mono signal, got shape {samples.shape}")
    wavfile.write(str(path), int(sample_rate), samples)


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
