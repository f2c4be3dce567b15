"""Artifact formats: every document kind reads back to the bytes it was written from."""

import io

import numpy as np
import pytest

import mixquad as mq


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
