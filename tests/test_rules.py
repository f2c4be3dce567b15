"""Artifact formats: every document kind reads back to the bytes it was written from."""

import io
import json

import numpy as np
import pytest

import mixquad as mq
from mixquad.rules import _dumps, mixture_sha256, stamp, stamped


def corr2d():
    return mq.GaussianMixture(
        [0.5, 0.5],
        [[-0.5, 0.3], [0.4, -0.4]],
        [
            [[1.0, 0.24], [0.24, 0.64]],
            [[0.49, -0.28], [-0.28, 1.0]],
        ],
    )


def basis():
    return mq.gram_schmidt(mq.raw_moments(corr2d(), 4), 2, 2)


def rule():
    rng = np.random.default_rng(1)
    return mq.QuadratureRule(nodes=rng.normal(size=(7, 2)), weights=rng.random(7),
                             residual_norm=3.1e-9, basis_order=4, converged=True, seed=3)


def surrogate():
    b = basis()
    coeff = np.random.default_rng(2).normal(size=b.size)
    return mq.Surrogate(b, coeff, rule_residual=3.1e-9, meta={"model": "noise", "sample_count": 7})


def read_nodes(text):
    # nodes.csv is written for external simulators; the package has no reader
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)


# kind: (object, writer, reader, arrays that must survive the round trip)
KINDS = {
    "mixture": (corr2d, mq.mixture_to_json, mq.mixture_from_json,
                lambda gm: [gm.mix_weights, *gm.means, *gm.covariances]),
    "basis": (basis, mq.basis_to_json, mq.basis_from_json,
              lambda b: [b.exponent_matrix(), b.coeff_matrix, b.gram_residual]),
    "rule": (rule, mq.rule_to_json, mq.rule_from_json,
             lambda r: [r.nodes, r.weights, r.residual_norm, r.basis_order, r.converged, r.seed]),
    "surrogate": (surrogate, mq.surrogate_to_json, mq.surrogate_from_json,
                  lambda s: [s.basis.coeff_matrix, s.coefficients, s.rule_residual, s.meta]),
    "nodes": (lambda: rule().nodes, mq.nodes_to_csv, read_nodes, lambda x: [x]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_document_round_trip_is_byte_stable(kind):
    make, write, read, arrays = KINDS[kind]
    obj = make()
    text = write(obj)
    back = read(text)
    assert write(back) == text
    for a, b in zip(arrays(obj), arrays(back), strict=True):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    # a JSON reader names the kind of document it could not build
    with pytest.raises(ValueError, match=None if kind == "nodes" else f"malformed {kind} document"):
        read("{}")


@pytest.mark.parametrize("kind", ["mixture", "basis", "rule", "surrogate"])
@pytest.mark.parametrize("damage", ["truncated", "not an object"])
def test_damaged_json_document_names_its_kind(kind, damage):
    # the reader turns JSON errors and wrong types, not only missing keys, into a ValueError
    make, write, read, _ = KINDS[kind]
    text = write(make())
    bad = text[: len(text) // 2] if damage == "truncated" else "[1, 2]"
    with pytest.raises(ValueError, match=f"malformed {kind} document"):
        read(bad)


@pytest.mark.parametrize("kind", ["mixture", "basis", "rule", "surrogate"])
def test_stamped_document_is_the_redump_with_the_digest_last(kind, monkeypatch):
    make, write, read, _ = KINDS[kind]
    text = write(make())
    digest = mixture_sha256(corr2d())
    got = stamped(text, corr2d())
    assert got == _dumps({**json.loads(text), "mixture_sha256": digest})
    assert list(json.loads(got))[-1] == "mixture_sha256"
    assert (stamp(got), stamp(text)) == (digest, None)
    # the digest is read where stamped writes it, as the last field, and nowhere else
    moved = _dumps({"mixture_sha256": digest, **json.loads(text)})
    assert stamp(moved) is None and stamp(json.dumps(json.loads(got))) is None
    # readers ignore the field
    assert write(read(got)) == text

    def no_parse(*args, **kwargs):
        raise AssertionError("stamp parsed the document")
    monkeypatch.setattr(json, "loads", no_parse)
    assert stamp(got) == digest


@pytest.mark.parametrize("kind, key, bad", [
    ("mixture", "dim", 2.0),
    ("mixture", "dim", "2"),
    ("basis", "dim", True),
    ("basis", "order", 2.5),
    ("rule", "order_2p", 4.9),
    ("rule", "order_2p", True),
    ("rule", "seed", "x"),
    ("rule", "converged", "false"),
    ("rule", "converged", 1),
])
def test_typed_field_of_another_json_type_is_rejected_by_name(kind, key, bad):
    make, write, read, _ = KINDS[kind]
    obj = json.loads(write(make()))
    obj[key] = bad
    with pytest.raises(ValueError, match=f"^{key} must be of type "):
        read(_dumps(obj))


@pytest.mark.parametrize("key, bad", [
    ("model", 3),
    ("model", None),
    ("sample_count", "x"),
    ("sample_count", 7.0),
    ("sample_count", True),
])
def test_surrogate_meta_field_of_another_json_type_is_rejected_by_name(key, bad):
    # so a document that reads back can always be written again
    obj = json.loads(mq.surrogate_to_json(surrogate()))
    obj["meta"][key] = bad
    with pytest.raises(ValueError, match=f"^{key} must be of type "):
        mq.surrogate_from_json(_dumps(obj))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-12])
def test_rule_and_surrogate_reject_a_bad_residual(bad):
    r, s = rule(), surrogate()
    with pytest.raises(ValueError, match="residual_norm must be finite and nonnegative"):
        mq.QuadratureRule(nodes=r.nodes, weights=r.weights, residual_norm=bad, basis_order=4)
    with pytest.raises(ValueError, match="rule_residual must be finite and nonnegative"):
        mq.Surrogate(s.basis, s.coefficients, rule_residual=bad)


def test_documents_are_strict_json():
    from mixquad.rules import stats_to_json

    with pytest.raises(ValueError, match="JSON compliant"):
        stats_to_json(0.0, float("inf"), float("inf"))
