"""Unit tests for the XML crawl-format persistence."""

import xml.etree.ElementTree as ET

import pytest

from repro.data import (
    dumps_corpus,
    figure1_corpus,
    load_corpus,
    loads_corpus,
    save_corpus,
)
from repro.data.xml_store import space_from_element, space_to_element
from repro.errors import XmlFormatError


class TestRoundTrip:
    def test_string_roundtrip_preserves_everything(self, fig1_corpus):
        text = dumps_corpus(fig1_corpus)
        loaded = loads_corpus(text)
        assert dumps_corpus(loaded) == text

    def test_roundtrip_entity_counts(self, fig1_corpus):
        loaded = loads_corpus(dumps_corpus(fig1_corpus))
        assert len(loaded.bloggers) == len(fig1_corpus.bloggers)
        assert len(loaded.posts) == len(fig1_corpus.posts)
        assert len(loaded.comments) == len(fig1_corpus.comments)
        assert len(loaded.links) == len(fig1_corpus.links)

    def test_roundtrip_preserves_text(self, fig1_corpus):
        loaded = loads_corpus(dumps_corpus(fig1_corpus))
        assert loaded.post("post1").body == fig1_corpus.post("post1").body
        assert (
            loaded.blogger("amery").profile_text
            == fig1_corpus.blogger("amery").profile_text
        )

    def test_directory_roundtrip(self, fig1_corpus, tmp_path):
        save_corpus(fig1_corpus, tmp_path)
        assert (tmp_path / "index.xml").exists()
        assert (tmp_path / "space-amery.xml").exists()
        loaded = load_corpus(tmp_path)
        assert dumps_corpus(loaded) == dumps_corpus(fig1_corpus)

    def test_loaded_corpus_is_frozen(self, fig1_corpus):
        assert loads_corpus(dumps_corpus(fig1_corpus)).frozen

    def test_special_characters_survive(self, tiny_corpus):
        # Rebuild with text that needs XML escaping.
        from repro.data import CorpusBuilder

        builder = CorpusBuilder()
        builder.blogger("a", profile_text="<tags> & \"quotes\" 'n stuff")
        post = builder.post("a", title="a < b & c", body="x > y")
        builder.comment(post.post_id, "a", text="5 < 6 && \"ok\"")
        corpus = builder.build()
        loaded = loads_corpus(dumps_corpus(corpus))
        assert loaded.blogger("a").profile_text == "<tags> & \"quotes\" 'n stuff"
        assert loaded.post(post.post_id).title == "a < b & c"


class TestSpaceElement:
    def test_space_structure(self, fig1_corpus):
        element = space_to_element(fig1_corpus, "amery")
        assert element.tag == "space"
        assert element.get("id") == "amery"
        posts = element.find("posts").findall("post")
        assert [p.get("id") for p in posts] == ["post1", "post2"]
        comments = posts[0].find("comments").findall("comment")
        assert {c.get("by") for c in comments} == {"bob", "cary"}

    def test_space_from_element_rejects_wrong_tag(self):
        with pytest.raises(XmlFormatError, match="expected <space>"):
            space_from_element(ET.Element("bogus"))

    def test_space_missing_profile_rejected(self):
        element = ET.Element("space", {"id": "x"})
        with pytest.raises(XmlFormatError, match="no <profile>"):
            space_from_element(element)

    def test_missing_attribute_rejected(self):
        element = ET.Element("space")  # no id
        with pytest.raises(XmlFormatError, match="missing required attribute"):
            space_from_element(element)

    def test_bad_int_attribute_rejected(self):
        element = ET.Element("space", {"id": "x"})
        ET.SubElement(element, "profile", {"joined-day": "soon"})
        with pytest.raises(XmlFormatError, match="must be an integer"):
            space_from_element(element)

    def test_bad_link_weight_rejected(self):
        corpus = figure1_corpus()
        element = space_to_element(corpus, "bob")
        link = element.find("links").find("link")
        link.set("weight", "heavy")
        with pytest.raises(XmlFormatError, match="weight must be a number"):
            space_from_element(element)


class TestErrors:
    def test_loads_invalid_xml(self):
        with pytest.raises(XmlFormatError, match="invalid XML"):
            loads_corpus("<blogosphere><space></blogosphere>")

    def test_loads_wrong_root(self):
        with pytest.raises(XmlFormatError, match="expected <blogosphere>"):
            loads_corpus("<wrong/>")

    def test_load_missing_index(self, tmp_path):
        with pytest.raises(XmlFormatError, match="no index.xml"):
            load_corpus(tmp_path)

    def test_load_index_wrong_root(self, tmp_path):
        (tmp_path / "index.xml").write_text("<nope/>")
        with pytest.raises(XmlFormatError, match="expected <index>"):
            load_corpus(tmp_path)

    def test_load_index_references_missing_file(self, tmp_path):
        (tmp_path / "index.xml").write_text(
            '<index><space id="a" file="space-a.xml"/></index>'
        )
        with pytest.raises(XmlFormatError, match="missing file"):
            load_corpus(tmp_path)

    def test_load_corrupt_space_file(self, fig1_corpus, tmp_path):
        save_corpus(fig1_corpus, tmp_path)
        (tmp_path / "space-amery.xml").write_text("<space broken")
        with pytest.raises(XmlFormatError, match="invalid XML"):
            load_corpus(tmp_path)


class TestCorruptionModes:
    """Every distinct way stored data can rot maps to CorpusFormatError."""

    def test_corpus_format_error_is_typed(self):
        from repro.errors import CorpusFormatError, ReproError

        assert issubclass(CorpusFormatError, XmlFormatError)
        assert issubclass(CorpusFormatError, ReproError)

    def test_truncated_space_file(self, fig1_corpus, tmp_path):
        from repro.errors import CorpusFormatError

        save_corpus(fig1_corpus, tmp_path)
        target = tmp_path / "space-amery.xml"
        content = target.read_text()
        target.write_text(content[: len(content) // 2])
        with pytest.raises(CorpusFormatError, match="invalid XML"):
            load_corpus(tmp_path)

    def test_duplicate_ids_across_space_files(self, fig1_corpus, tmp_path):
        from repro.errors import CorpusFormatError

        save_corpus(fig1_corpus, tmp_path)
        index = tmp_path / "index.xml"
        doc = ET.fromstring(index.read_text())
        first = doc.find("space")
        ET.SubElement(doc, "space",
                      {"id": first.get("id"), "file": first.get("file")})
        index.write_text(ET.tostring(doc, encoding="unicode"))
        with pytest.raises(CorpusFormatError,
                           match="stored corpus data is invalid"):
            load_corpus(tmp_path)

    def test_dangling_reference_inside_store(self, fig1_corpus, tmp_path):
        from repro.errors import CorpusFormatError

        save_corpus(fig1_corpus, tmp_path)
        target = tmp_path / "space-amery.xml"
        space = ET.fromstring(target.read_text())
        links = space.find("links")
        ET.SubElement(links, "link", {"to": "nobody-anywhere"})
        target.write_text(ET.tostring(space, encoding="unicode"))
        with pytest.raises(CorpusFormatError,
                           match="stored corpus data is invalid"):
            load_corpus(tmp_path)

    def test_invalid_entity_data(self, fig1_corpus, tmp_path):
        from repro.errors import CorpusFormatError

        save_corpus(fig1_corpus, tmp_path)
        target = tmp_path / "space-amery.xml"
        space = ET.fromstring(target.read_text())
        space.find("profile").set("joined-day", "-5")
        target.write_text(ET.tostring(space, encoding="unicode"))
        with pytest.raises(CorpusFormatError,
                           match="stored corpus data is invalid"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_link_weight(self, fig1_corpus, tmp_path, weight):
        from repro.errors import CorpusFormatError

        save_corpus(fig1_corpus, tmp_path)
        target = tmp_path / "space-bob.xml"
        space = ET.fromstring(target.read_text())
        space.find("links").find("link").set("weight", weight)
        target.write_text(ET.tostring(space, encoding="unicode"))
        with pytest.raises(CorpusFormatError,
                           match="finite positive number"):
            load_corpus(tmp_path)

    def test_loads_duplicate_post_across_spaces(self, fig1_corpus):
        from repro.errors import CorpusFormatError

        doc = ET.fromstring(dumps_corpus(fig1_corpus))
        spaces = doc.findall("space")
        dup = spaces[0].find("posts").find("post")
        spaces[1].find("posts").append(dup)
        with pytest.raises(CorpusFormatError,
                           match="stored corpus data is invalid"):
            loads_corpus(ET.tostring(doc, encoding="unicode"))

    def test_catching_xml_format_error_still_works(self, fig1_corpus,
                                                   tmp_path):
        """Pre-hardening callers that catch XmlFormatError keep working."""
        save_corpus(fig1_corpus, tmp_path)
        (tmp_path / "space-amery.xml").write_text("<space broken")
        with pytest.raises(XmlFormatError):
            load_corpus(tmp_path)
