"""The corpus and its golden verdicts against the JSON Schemas in docs/schema."""

import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SCHEMAS = ROOT / "docs" / "schema"


def _load(path: pathlib.Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _validator(name: str):
    # the verdict schema refers to the spec schema by its $id
    schemas = [_load(p) for p in sorted(SCHEMAS.glob("*.json"))]
    registry = referencing.Registry().with_resources(
        (s["$id"], referencing.Resource.from_contents(s)) for s in schemas
    )
    schema = _load(SCHEMAS / f"{name}.json")
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_corpus_specs_match_the_spec_schema():
    validator = _validator("spec_document")
    paths = sorted(CORPUS.glob("*.json"))
    assert len(paths) == 41
    for path in paths:
        errors = list(validator.iter_errors(_load(path)))
        if path.stem == "malformed":
            assert errors, "malformed.json must not validate"
        else:
            assert not errors, f"{path.name}: {errors[0].message}"


def test_golden_verdicts_match_the_verdict_schema():
    validator = _validator("verdict_document")
    checked = 0
    biquadratic = ROOT / "tests" / "golden" / "biquadratic_tower.json"
    for path in sorted((CORPUS / "expected").glob("*.json")) + [biquadratic]:
        doc = _load(path)
        if path.stem == "malformed":
            assert doc["error"] == "parse_error"  # an error document, not a verdict
            continue
        errors = list(validator.iter_errors(doc))
        assert not errors, f"{path.name}: {errors[0].message}"
        checked += 1
    assert checked == 41


def test_embedding_schema_pins_the_keys_of_each_record():
    # each embedding type's keys are "type" and its record's fields, all
    # required and nothing else allowed
    from typing import get_args

    from almin import serde, verify

    embedding = _load(SCHEMAS / "verdict_document.json")["$defs"]["embedding"]
    required = {r["if"]["properties"]["type"]["const"]: r["then"]["required"] for r in embedding["allOf"]}
    kinds = get_args(verify.EmbeddingData)
    assert required == {tag: ["type", *cls._fields] for tag, cls in serde._TAGS.items() if cls in kinds}
    assert embedding["properties"]["type"]["enum"] == list(required)
    validator = _validator("verdict_document")
    doc = _load(CORPUS / "expected" / "so6.json")
    assert not list(validator.iter_errors(doc))
    doc["witness"]["embedding"]["extra"] = "1"
    assert list(validator.iter_errors(doc))
    del doc["witness"]["embedding"]["extra"], doc["witness"]["embedding"]["basis"]
    assert list(validator.iter_errors(doc))
