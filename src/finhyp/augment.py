"""Definition augmentation.

Each term is matched against a dictionary of definitions, exactly first and
then fuzzily by character-n-gram similarity; on a match the first sentence
of the definition is appended as "term. sentence". Unmatched terms pass
through untouched. A dataset is matched in one pass: one exact-headword
lookup per term, then one ``best_ngram_matches`` call for the terms left.
The pipeline only ever reads offline snapshot files; populating a snapshot
from a remote source goes through a pluggable fetcher.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

from .fileio import atomic_write
from .oov import NgramIndex, best_ngram_matches

log = logging.getLogger(__name__)

# The lowest n-gram Jaccard score that matches a term to a headword.
MIN_MATCH_SCORE = 0.2


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


@dataclass(frozen=True)
class AugmentedTerm:
    raw: str
    matched_headword: str | None
    definition_sentence: str | None
    text: str


def augment_dataset(terms, ddict: DefinitionDict):
    """Augment every term; returns (augmented list, matched/total coverage).

    A term's headword is its normalized form when the dictionary has it,
    else the best n-gram match scoring at least MIN_MATCH_SCORE, else None;
    the distinct terms without an exact headword are matched in one
    ``best_ngram_matches`` call. A bare ``str`` raises TypeError.
    """
    if isinstance(terms, str):
        raise TypeError("terms must be an iterable of str, not a str")
    terms = list(terms)
    norms = [normalize(t) for t in terms]
    heads = {n: n for n in norms if n in ddict.entries}
    rest = [n for n in dict.fromkeys(norms) if n not in heads]
    if rest and len(ddict):
        for norm, found in zip(rest, best_ngram_matches(rest, ddict.index)):
            if found is not None and found[1] >= MIN_MATCH_SCORE:
                heads[norm] = ddict.headwords[found[0]]
    sentences = {h: first_sentence(ddict.entries[h]) for h in set(heads.values())}
    out = []
    for raw, norm in zip(terms, norms):
        head = heads.get(norm)
        sentence = sentences.get(head)
        text = raw if head is None else f"{raw}. {sentence}"
        out.append(AugmentedTerm(raw, head, sentence, text))
    matched = sum(1 for a in out if a.matched_headword is not None)
    coverage = matched / len(out) if out else 0.0
    return out, coverage


class HttpFetcher:
    """GETs {base_url}?term=<quoted term> and expects a JSON object with
    "headword" and "definition" fields; a 404 means no definition."""

    def __init__(self, base_url: str, timeout: float, user_agent: str):
        self.base_url = base_url
        self.timeout = timeout
        self.user_agent = user_agent

    def __call__(self, term: str):
        # urllib.request is slow to import and only fetching needs it.
        import urllib.error
        import urllib.parse
        import urllib.request

        url = f"{self.base_url}?term={urllib.parse.quote(term)}"
        req = urllib.request.Request(url, headers={"User-Agent": self.user_agent})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            if err.code == 404:
                return None
            raise
        return payload["headword"], payload["definition"]


def fetch_definitions(terms, fetcher, snapshot_out, rate_limit: float = 0.0):
    """Query every term, write the collected snapshot, return (dict, failures).

    The fetcher is any callable term -> (headword, definition) or None,
    called at most rate_limit times per second (0: no limit). A fetcher
    exception, or an answer whose headword or definition is not a string,
    skips the term with a warning and counts as a failure; duplicate
    headwords keep the last definition fetched. The snapshot write is atomic.
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
            if found is None:
                continue
            head, definition = found
            if not (isinstance(head, str) and isinstance(definition, str)):
                raise ValueError(f"headword and definition must be strings: {found!r}")
        except Exception as err:  # noqa: BLE001 - remote sources fail in many ways
            failures += 1
            log.warning("fetch failed for %r: %s", term, err)
            continue
        entries[normalize(head)] = definition
    ddict = DefinitionDict(entries)
    ddict.to_snapshot(snapshot_out)
    return ddict, failures
