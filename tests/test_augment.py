"""Definition matching and text augmentation."""
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp.augment import (
    MIN_MATCH_SCORE,
    AugmentedTerm,
    DefinitionDict,
    HttpFetcher,
    augment_dataset,
    fetch_definitions,
    first_sentence,
    normalize,
)
from finhyp.oov import best_ngram_matches


@pytest.fixture
def defs():
    return DefinitionDict(
        {
            "swap": "A swap is a derivative. It trades cash flows.",
            "interest rate swap": "An interest rate swap exchanges fixed for floating payments. Banks use them.",
            "corporate bond": "A corporate bond is debt issued by a company.",
        }
    )


class TestNormalize:
    def test_lowercase_and_whitespace(self):
        assert normalize("  Interest   Rate\tSwap ") == "interest rate swap"

    def test_idempotent(self):
        assert normalize(normalize("A  B")) == normalize("A  B")


class TestFirstSentence:
    def test_cuts_at_first_period_before_space(self):
        text = "A swap is a derivative. It trades cash flows."
        assert first_sentence(text) == "A swap is a derivative."

    def test_no_period_returns_whole_text(self):
        assert first_sentence("No period here") == "No period here"

    def test_abbreviation_blind(self):
        text = "Apple Inc. is a company. More text."
        assert first_sentence(text) == "Apple Inc."

    def test_period_at_end_of_text(self):
        assert first_sentence("One sentence.") == "One sentence."

    def test_period_inside_token_not_a_boundary(self):
        assert first_sentence("Version 2.5 shipped. Later.") == (
            "Version 2.5 shipped."
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            first_sentence("")


class TestDefinitionDict:
    def test_headwords_normalized_and_sorted(self, defs):
        assert defs.headwords == ["corporate bond", "interest rate swap", "swap"]
        assert "SWAP" in defs
        assert defs.definition("  Swap ") .startswith("A swap")

    def test_empty_definitions_dropped(self):
        d = DefinitionDict({"a": "   ", "b": "real text"})
        assert len(d) == 1
        assert "a" not in d

    def test_type_validation(self):
        with pytest.raises(ValueError):
            DefinitionDict({"a": 3})
        with pytest.raises(ValueError):
            DefinitionDict({2: "x"})

    def test_snapshot_round_trip(self, defs, tmp_path):
        path = tmp_path / "snap.json"
        defs.to_snapshot(path)
        again = DefinitionDict.from_snapshot(path)
        assert again.entries == defs.entries
        assert again.headwords == defs.headwords

    def test_snapshot_is_sorted_json(self, defs, tmp_path):
        path = tmp_path / "snap.json"
        defs.to_snapshot(path)
        raw = path.read_text()
        data = json.loads(raw)
        assert list(data) == sorted(data)
        assert raw.endswith("\n")

    def test_snapshot_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            DefinitionDict.from_snapshot(path)


class TestMatchTerm:
    def test_exact_after_normalization(self, defs):
        assert augment_dataset(["Swap"], defs)[0][0].matched_headword == "swap"
        (a,), _ = augment_dataset(["  CORPORATE   BOND "], defs)
        assert a.matched_headword == "corporate bond"

    def test_fuzzy_plural(self, defs):
        (a,), _ = augment_dataset(["interest rate swaps"], defs)
        assert a.matched_headword == "interest rate swap"

    def test_no_shared_ngrams(self, defs):
        assert augment_dataset(["XJ9-ZQ"], defs)[0][0].matched_headword is None

    def test_below_threshold_rejected(self, defs):
        # shares a few grams with "swap" but far under 0.2 similarity
        (a,), _ = augment_dataset(["swahili dictionary volume"], defs)
        assert a.matched_headword is None

    def test_threshold_inclusive(self):
        # {abc, bcx, abcx} vs {abc, bcd, abcd}: Jaccard 1/5, the threshold
        # itself; "abcxy" has 6 grams and scores 1/8
        ddict = DefinitionDict({"abcd": "A test entry."})
        assert augment_dataset(["abcx"], ddict)[0][0].matched_headword == "abcd"
        assert augment_dataset(["abcxy"], ddict)[0][0].matched_headword is None

    def test_empty_dict(self):
        (a,), _ = augment_dataset(["swap"], DefinitionDict({}))
        assert a.matched_headword is None


class TestAugmentOne:
    def test_matched_term_gets_sentence(self, defs):
        a = augment_dataset(["Swap"], defs)[0][0]
        assert a.raw == "Swap"
        assert a.matched_headword == "swap"
        assert a.definition_sentence == "A swap is a derivative."
        assert a.text == "Swap. A swap is a derivative."

    def test_unmatched_passes_through(self, defs):
        a = augment_dataset(["XJ9-ZQ"], defs)[0][0]
        assert a.matched_headword is None
        assert a.definition_sentence is None
        assert a.text == "XJ9-ZQ"

    def test_idempotent_on_augmented_term(self, defs):
        once = augment_dataset(["Swap"], defs)[0][0]
        # an augmented term is re-augmented from its raw string
        twice = augment_dataset([once.raw], defs)[0][0]
        assert twice == once

    def test_text_never_shorter_than_raw(self, defs):
        for term in ["Swap", "bond", "XJ9-ZQ", "interest rate swaps"]:
            a = augment_dataset([term], defs)[0][0]
            assert len(a.text) >= len(a.raw)
            assert a.text.startswith(a.raw) or a.text == a.raw

    def test_equality_iff_unmatched(self, defs):
        assert augment_dataset(["XJ9-ZQ"], defs)[0][0].text == "XJ9-ZQ"
        assert augment_dataset(["Swap"], defs)[0][0].text != "Swap"


class TestAugmentDataset:
    def test_coverage_fraction(self, defs):
        out, coverage = augment_dataset(["Swap", "corporate bond", "XYZQ-4"], defs)
        assert len(out) == 3
        assert coverage == pytest.approx(2 / 3)

    def test_empty_dict_means_zero_coverage(self):
        terms = ["Swap", "bond"]
        out, coverage = augment_dataset(terms, DefinitionDict({}))
        assert coverage == 0.0
        assert [a.text for a in out] == terms

    def test_empty_terms(self, defs):
        out, coverage = augment_dataset([], defs)
        assert out == []
        assert coverage == 0.0

    def test_bare_str_raises(self, defs):
        # a str is an iterable of terms "S", "w", "a", "p", and not a batch
        with pytest.raises(TypeError):
            augment_dataset("Swap", defs)

    def test_any_iterable(self, defs):
        terms = ["Swap", "XJ9-ZQ", "interest rate swaps"]
        assert augment_dataset(iter(terms), defs) == augment_dataset(terms, defs)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_term_reference(self, data):
        # blank definitions drop their entry, and headwords that normalize
        # alike merge
        entries = st.dictionaries(
            st.text(alphabet="abcde ", max_size=9),
            st.sampled_from(["A first. Second.", "No period", "  ", "x.y. z"]),
            max_size=6,
        )
        ddict = DefinitionDict(data.draw(entries))
        # case and whitespace variants of the headwords, other texts over
        # their letters, and texts that share no gram with any of them
        pool = [
            v
            for h in ddict.headwords
            for v in (h, h.upper(), f"  {h} ", h.replace(" ", "\t "))
        ]
        term = st.one_of(
            st.text(alphabet="abcdeAB ", max_size=10),
            st.text(alphabet="XYZ9 ", max_size=6),
            *([st.sampled_from(pool)] if pool else []),
        )
        terms = data.draw(st.lists(term, max_size=8))
        terms += terms[: data.draw(st.integers(0, len(terms)))]
        out, coverage = augment_dataset(terms, ddict)
        assert out == [reference_augment(t, ddict) for t in terms]
        matched = sum(a.matched_headword is not None for a in out)
        assert coverage == (matched / len(terms) if terms else 0.0)


def reference_augment(term: str, ddict: DefinitionDict) -> AugmentedTerm:
    """Per-term oracle for augment_dataset: the exact headword, else the
    best n-gram match scoring at least MIN_MATCH_SCORE, else none."""
    norm = normalize(term)
    head = None
    if norm in ddict.entries:
        head = norm
    elif len(ddict):
        found = best_ngram_matches([norm], ddict.index)[0]
        if found is not None and found[1] >= MIN_MATCH_SCORE:
            head = ddict.headwords[found[0]]
    if head is None:
        return AugmentedTerm(term, None, None, term)
    sentence = first_sentence(ddict.definition(head))
    return AugmentedTerm(term, head, sentence, f"{term}. {sentence}")


class TestFetch:
    def test_collects_entries_and_counts_failures(self, tmp_path):
        book = {
            "swap": ("Swap", "A swap trades cash flows."),
            "bond": ("Bond", "A bond is debt."),
        }

        def fetcher(term):
            if term == "boom":
                raise OSError("connection reset")
            return book.get(term)

        snap = tmp_path / "snap.json"
        ddict, failures = fetch_definitions(
            ["swap", "boom", "bond", "missing"], fetcher, snap
        )
        assert failures == 1
        assert sorted(ddict.headwords) == ["bond", "swap"]
        on_disk = json.loads(snap.read_text())
        assert on_disk == {
            "swap": "A swap trades cash flows.",
            "bond": "A bond is debt.",
        }

    def test_last_write_wins(self, tmp_path):
        answers = iter(
            [("Swap", "first definition."), ("SWAP", "second definition.")]
        )
        ddict, failures = fetch_definitions(
            ["a", "b"], lambda t: next(answers), tmp_path / "s.json"
        )
        assert failures == 0
        assert len(ddict) == 1
        assert ddict.definition("swap") == "second definition."

    @pytest.mark.parametrize(
        "answer", [("Bond", None), (None, "A debt."), (7, "x")], ids=repr
    )
    def test_non_string_answer_is_a_failure(self, tmp_path, caplog, answer):
        # the definitions fetched before and after it are kept
        book = {"swap": ("Swap", "A swap trades cash flows."), "odd": answer}
        snap = tmp_path / "snap.json"
        with caplog.at_level(logging.WARNING, logger="finhyp.augment"):
            ddict, failures = fetch_definitions(
                ["swap", "odd", "bond"],
                lambda t: book.get(t, ("Bond", "A bond is debt.")),
                snap,
            )
        assert failures == 1
        assert ddict.headwords == ["bond", "swap"]
        assert json.loads(snap.read_text()) == {
            "bond": "A bond is debt.",
            "swap": "A swap trades cash flows.",
        }
        [record] = caplog.records
        assert record.getMessage().startswith("fetch failed for 'odd': ")

    def test_none_result_skipped_silently(self, tmp_path):
        ddict, failures = fetch_definitions(
            ["x"], lambda t: None, tmp_path / "s.json"
        )
        assert failures == 0
        assert len(ddict) == 0

    def test_rate_limit_spaces_requests(self, tmp_path, monkeypatch):
        # the rate is fetch_definitions' own argument: at 2 requests per
        # second a request waits out what is left of 0.5 s since the last one
        clock = iter([10.0, 10.1, 10.5, 11.25, 11.25])
        slept = []
        monkeypatch.setattr("finhyp.augment.time.monotonic", lambda: next(clock))
        monkeypatch.setattr("finhyp.augment.time.sleep", slept.append)
        fetch_definitions(["a", "b", "c"], lambda t: None, tmp_path / "s.json", 2.0)
        assert slept == pytest.approx([0.4])

    def test_no_leftover_temp_files(self, tmp_path):
        fetch_definitions(
            ["swap"], lambda t: ("swap", "def."), tmp_path / "s.json"
        )
        leftovers = [p for p in tmp_path.iterdir() if p.name != "s.json"]
        assert leftovers == []


class TestHttpFetcher:
    def test_url_and_parsing(self, monkeypatch):
        captured = {}

        class FakeResponse:
            def read(self):
                return json.dumps(
                    {"headword": "swap", "definition": "A swap."}
                ).encode()

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        def fake_urlopen(req, timeout):
            captured["url"] = req.full_url
            captured["timeout"] = timeout
            captured["ua"] = req.get_header("User-agent")
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        fetcher = HttpFetcher("http://x.test/defs", 3.0, "finhyp/0.1")
        out = fetcher("interest rate swap")
        assert out == ("swap", "A swap.")
        assert captured["url"] == "http://x.test/defs?term=interest%20rate%20swap"
        assert captured["timeout"] == 3.0
        assert captured["ua"] == "finhyp/0.1"

    def test_config_holds_no_rate(self):
        # HttpFetcher makes one request per call; fetch_definitions paces them
        fetcher = HttpFetcher("http://x.test/defs", 10.0, "finhyp/0.1")
        assert vars(fetcher) == {
            "base_url": "http://x.test/defs",
            "timeout": 10.0,
            "user_agent": "finhyp/0.1",
        }

    def test_404_is_no_definition(self, monkeypatch):
        import urllib.error

        def raise_404(req, timeout):
            raise urllib.error.HTTPError("u", 404, "nf", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", raise_404)
        fetcher = HttpFetcher("http://x.test/defs", 10.0, "finhyp/0.1")
        assert fetcher("whatever") is None

    def test_other_http_errors_propagate(self, monkeypatch):
        import urllib.error

        def raise_500(req, timeout):
            raise urllib.error.HTTPError("u", 500, "boom", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", raise_500)
        fetcher = HttpFetcher("http://x.test/defs", 10.0, "finhyp/0.1")
        with pytest.raises(urllib.error.HTTPError):
            fetcher("whatever")


class TestAugmentedTermShape:
    def test_frozen(self):
        a = AugmentedTerm("x", None, None, "x")
        with pytest.raises(AttributeError):
            a.text = "y"
