"""Definition augmentation.

Each term is matched against a dictionary of definitions, exactly first and
then fuzzily by character-n-gram similarity; on a match the first sentence
of the definition is appended as "term. sentence". Unmatched terms pass
through untouched. The pipeline only ever reads offline snapshot files;
populating a snapshot from a remote source goes through a pluggable fetcher.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

from .fileio import atomic_write
from .oov import NgramIndex, best_ngram_match

log = logging.getLogger(__name__)

DEFAULT_MIN_SCORE = 0.2


def normalize(text: str) -> str:
    """Lowercase with whitespace collapsed to single spaces."""
    return " ".join(text.split()).lower()


def first_sentence(text: str) -> str:
    """Text up to and including the first '.' followed by whitespace or the
    end; the whole text when no such period exists.

    Abbreviation-blind by design: "Apple Inc. is a company." cuts at "Inc.".
    """
    if not text:
        raise ValueError("empty definition text")
    for i, ch in enumerate(text):
        if ch == "." and (i + 1 == len(text) or text[i + 1].isspace()):
            return text[: i + 1].strip()
    return text.strip()


class DefinitionDict:
    """Normalized headword -> definition text, immutable once constructed."""

    def __init__(self, entries: dict):
        self.entries: dict[str, str] = {}
        for head, definition in entries.items():
            if not isinstance(head, str) or not isinstance(definition, str):
                raise ValueError("headwords and definitions must be strings")
            if not definition.strip():
                continue
            self.entries[normalize(head)] = definition
        self._index: NgramIndex | None = None
        self._headwords = sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, headword: str) -> bool:
        return normalize(headword) in self.entries

    def definition(self, headword: str) -> str:
        return self.entries[normalize(headword)]

    @property
    def headwords(self) -> list[str]:
        return self._headwords

    @property
    def index(self) -> NgramIndex:
        if self._index is None:
            self._index = NgramIndex(self._headwords)
        return self._index

    @classmethod
    def from_snapshot(cls, path) -> "DefinitionDict":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"snapshot {path} must hold a JSON object")
        return cls(data)

    def to_snapshot(self, path) -> None:
        atomic_write(
            path,
            json.dumps(self.entries, sort_keys=True, ensure_ascii=False, indent=2)
            + "\n",
        )


def match_term(
    term: str, ddict: DefinitionDict, min_score: float = DEFAULT_MIN_SCORE
) -> str | None:
    """Headword for a term: exact after normalization, else the best n-gram
    match scoring at least min_score, else None."""
    if len(ddict) == 0:
        return None
    norm = normalize(term)
    if norm in ddict.entries:
        return norm
    found = best_ngram_match(norm, ddict.index)
    if found is None:
        return None
    entry_id, score = found
    if score < min_score:
        return None
    return ddict.headwords[entry_id]


@dataclass(frozen=True)
class AugmentedTerm:
    raw: str
    matched_headword: str | None
    definition_sentence: str | None
    text: str


def augment_one(
    term, ddict: DefinitionDict, min_score: float = DEFAULT_MIN_SCORE
) -> AugmentedTerm:
    """Augment a raw term string (or re-augment an AugmentedTerm by its raw)."""
    raw = term.raw if isinstance(term, AugmentedTerm) else term
    head = match_term(raw, ddict, min_score)
    if head is None:
        return AugmentedTerm(raw, None, None, raw)
    sentence = first_sentence(ddict.definition(head))
    return AugmentedTerm(raw, head, sentence, f"{raw}. {sentence}")


def augment_dataset(terms, ddict: DefinitionDict, min_score: float = DEFAULT_MIN_SCORE):
    """Augment every term; returns (augmented list, matched/total coverage)."""
    out = [augment_one(t, ddict, min_score) for t in terms]
    matched = sum(1 for a in out if a.matched_headword is not None)
    coverage = matched / len(out) if out else 0.0
    return out, coverage


@dataclass(frozen=True)
class FetcherConfig:
    base_url: str
    timeout: float = 10.0
    rate_limit: float = 1.0  # requests per second; 0 disables throttling
    user_agent: str = "finhyp/0.1"


class HttpFetcher:
    """GETs {base_url}?term=<quoted term> and expects a JSON object with
    "headword" and "definition" fields; a 404 means no definition."""

    def __init__(self, cfg: FetcherConfig):
        self.cfg = cfg

    def __call__(self, term: str):
        # urllib.request is slow to import and only fetching needs it.
        import urllib.error
        import urllib.parse
        import urllib.request

        url = f"{self.cfg.base_url}?term={urllib.parse.quote(term)}"
        req = urllib.request.Request(
            url, headers={"User-Agent": self.cfg.user_agent}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.cfg.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            if err.code == 404:
                return None
            raise
        return payload["headword"], payload["definition"]


def fetch_definitions(terms, fetcher, snapshot_out, rate_limit: float = 0.0):
    """Query every term, write the collected snapshot, return (dict, failures).

    The fetcher is any callable term -> (headword, definition) or None.
    A fetcher exception skips the term with a warning; duplicate headwords
    keep the last definition fetched. The snapshot write is atomic.
    """
    entries: dict[str, str] = {}
    failures = 0
    last: float | None = None
    for term in terms:
        if rate_limit > 0:
            if last is not None:
                wait = last + 1.0 / rate_limit - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
            last = time.monotonic()
        try:
            found = fetcher(term)
        except Exception as err:  # noqa: BLE001 - remote sources fail in many ways
            failures += 1
            log.warning("fetch failed for %r: %s", term, err)
            continue
        if found is None:
            continue
        head, definition = found
        entries[normalize(head)] = definition
    ddict = DefinitionDict(entries)
    ddict.to_snapshot(snapshot_out)
    return ddict, failures
