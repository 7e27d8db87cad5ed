"""Property tests for the per-corpus text table (repro.core.texts).

The table tokenizes each post once; every column it keeps must equal
the per-post computation it replaces, bit for bit: the body word count
(``word_count(post.body)``), the copy flag behind
``LexiconNoveltyDetector().novelty(post)``, the naive-Bayes
memberships ``predict_proba(post.text)`` on both kernels, and the
QualityScore built from them.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LexiconNoveltyDetector, MassParameters, QualityScorer
from repro.core.texts import PostTextTable
from repro.data import Post
from repro.errors import ClassifierError
from repro.nlp import NaiveBayesClassifier, word_count
from repro.nlp.lexicons import COPY_INDICATOR_PHRASES
from repro.synth import DOMAIN_VOCABULARIES

KERNELS = ["python", "numpy"]

SEED_CLASSIFIER = NaiveBayesClassifier.from_seed_vocabulary(
    DOMAIN_VOCABULARIES
)
# Labels first appear unsorted, so the class order the posteriors are
# summed and normalized in is not the sorted ``classes`` order.
TRAINED_CLASSIFIER = NaiveBayesClassifier(use_stopwords=True).fit(
    [
        "the stadium match and the final game",
        "a stock market rally and the budget",
        "painting on canvas in the gallery",
        "the league game went to overtime",
        "interest rates and the economy",
    ],
    ["Sports", "Economics", "Art", "Sports", "Economics"],
)
CLASSIFIERS = {"seed": SEED_CLASSIFIER, "trained": TRAINED_CLASSIFIER}

WORDS = st.sampled_from(
    [
        # In the vocabularies of both classifiers, in several cases.
        "game", "Match", "STADIUM", "market", "Stock", "canvas", "painting",
        "flight", "software", "doctor", "army", "minister", "economy",
        # Stopwords and contractions.
        "the", "and", "of", "don't", "I'm", "won't", "it's", "rock'n'roll",
        # Digits, upper case, punctuation-glued and non-ASCII words;
        # the Kelvin sign and dotted I lowercase to ASCII letters.
        "2010", "x86", "COVID19", "e-mail", "U.S.", "café", "naïve",
        "Straße", "ΣΑΣ", "İstanbul", "\u212aelvin", "über",
        # Copy-indicator words, so phrases also form by chance.
        "reposted", "from", "via", "rss", "courtesy", "of", "source",
    ]
)
SEPARATORS = st.sampled_from([" ", "  ", "\n", ", ", ". ", "!", "-", "'"])


def _text(max_words):
    return st.lists(
        st.tuples(WORDS, SEPARATORS), max_size=max_words
    ).map(lambda pairs: "".join(word + sep for word, sep in pairs))


@st.composite
def post_texts(draw):
    """A (title, body) pair; sometimes a copy phrase spans the two."""
    title = draw(st.one_of(st.just(""), _text(6)))
    body = draw(st.one_of(st.just(""), _text(40)))
    if draw(st.booleans()):
        phrase = draw(st.sampled_from(
            [p for p in COPY_INDICATOR_PHRASES if " " in p]
        )).split()
        cut = draw(st.integers(1, len(phrase) - 1))
        title = f"{title} {' '.join(phrase[:cut]).upper()}"
        body = f"{' '.join(phrase[cut:])} {body}"
    return title, body


@st.composite
def posts(draw, max_size=12):
    texts = draw(st.lists(post_texts(), max_size=max_size))
    days = draw(st.lists(st.integers(0, 400), min_size=len(texts),
                         max_size=len(texts)))
    return [
        Post(f"p{i:03d}", "author", title=title, body=body, created_day=day)
        for i, ((title, body), day) in enumerate(zip(texts, days))
    ]


def _memberships(table, kernel):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SPARSE_KERNEL", kernel)
        return table.memberships(range(len(table)))


def _spec_quality(params, population, post, reference_day):
    """The per-post QualityScore the table replaced, from the text."""
    words = word_count(post.body)
    mode = params.length_normalization
    if mode == "raw":
        length = float(words)
    elif mode == "log":
        length = math.log1p(words)
    else:
        max_words = max((word_count(p.body) for p in population), default=0)
        length = 0.0 if max_words == 0 else words / max_words
    novelty = 1.0
    if params.use_novelty:
        novelty = LexiconNoveltyDetector(
            copied_value=params.novelty_copied
        ).novelty(post)
    base = length * novelty
    if not params.decay_active:
        return base
    return base * params.decay_factor(reference_day - post.created_day)


class TestColumns:
    @given(posts())
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_the_per_post_spec(self, population):
        table = PostTextTable()
        assert table.extend(population) == range(len(population))
        assert table.rows_of(population) == list(range(len(population)))
        detector = LexiconNoveltyDetector()
        for row, post in enumerate(population):
            assert table.body_words[row] == word_count(post.body)
            assert table.copy_flags[row] == (detector.novelty(post) < 1.0)

    def test_phrase_split_across_title_and_body_counts(self):
        post = Post("p", "a", title="Great news, REPOSTED", body="from x")
        table = PostTextTable()
        table.extend([post])
        assert table.copy_flags[0] == 1
        assert LexiconNoveltyDetector().novelty(post) < 1.0

    @given(posts(), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_delta_extension_equals_build_over_grown_corpus(
        self, population, cut
    ):
        grown = PostTextTable(SEED_CLASSIFIER)
        grown.extend(population)
        table = PostTextTable(SEED_CLASSIFIER)
        table.extend(population[:cut])
        rows = table.extend(population[cut:] + population[:cut])
        assert rows == range(min(cut, len(population)), len(population))
        for column in ("post_ids", "body_words", "copy_flags", "term_ids",
                       "term_starts"):
            assert getattr(table, column) == getattr(grown, column), column


class TestMemberships:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    @given(population=posts())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_predict_proba(self, kernel, name, population):
        classifier = CLASSIFIERS[name]
        table = PostTextTable(classifier)
        table.extend(population)
        memberships = _memberships(table, kernel)
        assert list(memberships) == [post.post_id for post in population]
        for post in population:
            expected = classifier.predict_proba(post.text)
            # Same floats and the same class order.
            assert list(memberships[post.post_id].items()) == list(
                expected.items()
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_run_of_rows_scores_alone(self, kernel):
        population = [
            Post(f"p{i}", "a", body=body) for i, body in enumerate(
                ["the big game", "", "stock market crash", "canvas art"]
            )
        ]
        table = PostTextTable(SEED_CLASSIFIER)
        table.extend(population)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SPARSE_KERNEL", kernel)
            run = table.memberships(range(1, 3))
            empty = table.memberships(range(4, 4))
        assert list(run) == ["p1", "p2"]
        for post in population[1:3]:
            assert run[post.post_id] == SEED_CLASSIFIER.predict_proba(
                post.text
            )
        assert empty == {}

    def test_table_without_classifier_has_empty_rows(self):
        table = PostTextTable()
        table.extend([Post("p", "a", body="the big game")])
        assert list(table.term_starts) == [0, 0]
        with pytest.raises(ClassifierError, match="without a classifier"):
            table.memberships(range(1))


QUALITY_PARAMS = {
    "max": MassParameters(),
    "log": MassParameters(length_normalization="log"),
    "raw": MassParameters(length_normalization="raw"),
    "no-novelty": MassParameters(use_novelty=False),
    "copied-0.1": MassParameters(novelty_copied=0.1),
    "exp-decay": MassParameters(time_decay_kind="exp",
                                time_decay_half_life_days=45.0),
}


class TestQuality:
    @pytest.mark.parametrize("mode", sorted(QUALITY_PARAMS))
    @given(population=posts(), shared=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_quality_over_the_table_equals_per_post(self, mode, population,
                                                    shared):
        params = QUALITY_PARAMS[mode]
        reference_day = max((p.created_day for p in population), default=0)
        texts = None
        if shared:
            texts = PostTextTable(SEED_CLASSIFIER)
            texts.extend(population)
        scorer = QualityScorer(params, None, population,
                               reference_day=reference_day, texts=texts)
        expected = [
            _spec_quality(params, population, post, reference_day)
            for post in population
        ]
        assert scorer.scores(population) == expected
        assert [scorer.score(post) for post in population] == expected

    def test_posts_missing_from_the_table_are_appended(self):
        texts = PostTextTable()
        post = Post("late", "a", body="one two three")
        scorer = QualityScorer(MassParameters(length_normalization="raw"),
                               texts=texts)
        assert scorer.score(post) == 3.0
        assert texts.post_ids == ["late"]
