"""Ground-truth translation lexicon with optional part-of-speech tags."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FormatError
from .fileio import text_records


@dataclass
class GroundTruthLexicon:
    """Maps each source word to its set of acceptable target words."""

    source_language: str
    target_language: str
    entries: dict[str, set[str]] = field(default_factory=dict)
    pos: dict[str, str] = field(default_factory=dict)

    def add(self, source: str, target: str, pos: str | None = None) -> None:
        self.entries.setdefault(source, set()).add(target)
        if pos is not None:
            self.pos[source] = pos

    def pos_of(self, source: str) -> str:
        return self.pos.get(source, "unk")


def write_lexicon(path, lexicon: GroundTruthLexicon) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src in sorted(lexicon.entries):
            for tgt in sorted(lexicon.entries[src]):
                if src in lexicon.pos:
                    fh.write(f"{src}\t{tgt}\t{lexicon.pos[src]}\n")
                else:
                    fh.write(f"{src}\t{tgt}\n")


def read_lexicon(path, source_language: str = "", target_language: str = "") -> GroundTruthLexicon:
    """The lexicon of a file of `source<TAB>target[<TAB>POS]` lines. A source
    word takes one POS tag; lines without a tag fit any."""
    lexicon = GroundTruthLexicon(source_language, target_language)
    for lineno, line in text_records(path):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise FormatError(f"{path}:{lineno}: expected 2 or 3 tab-separated "
                              f"fields, got {len(parts)}")
        if "" in parts:
            field_name = ("source", "target", "POS")[parts.index("")]
            raise FormatError(f"{path}:{lineno}: empty {field_name} field")
        pos = parts[2] if len(parts) == 3 else None
        known = lexicon.pos.get(parts[0])
        if None not in (pos, known) and pos != known:
            raise FormatError(f"{path}:{lineno}: source word {parts[0]!r:.40} is tagged "
                              f"{pos!r:.40}, but an earlier line tags it {known!r:.40}")
        lexicon.add(parts[0], parts[1], pos)
    return lexicon
