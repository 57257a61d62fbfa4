"""Input checks that no other test reaches, one call each: every one raises
``ValidationError`` with its exact one-line message."""

import numpy as np
import pytest
from scipy import sparse

import embimpute as ei


def _two_entities():
    return ei.DomainMatrix(("a", "b"), [[0.0], [1.0]])


def _merge_over_present_token(path):
    problem = ei.align(_two_entities(), ei.EmbeddingTable(1, {"a": [1.0]}))
    table = ei.EmbeddingTable(1, {"a": [1.0], "b": [2.0]})
    ei.merge_imputed(table, problem, ei.ImputationResult(np.zeros((2, 1)), True))


def _stochastic_2x2():
    return ei.WeightMatrix(sparse.identity(2, format="csr"))


def _size_mismatch(path):
    graph = ei.build_graph(ei.euclidean_distance_matrix(np.arange(3.0)[:, None]), 1)
    ei.assemble_weight_matrix(graph, _two_entities())


def _labeled(vectors, labels):
    return ei.LabeledEmbeddings(vectors, labels, ("x", "y"))


def _read(loader, text):
    def call(path):
        path.write_text(text)
        loader(path)

    return call


# name: (call on a file path, message; {path} is that path)
CASES = {
    "domain_not_2d": (lambda path: ei.DomainMatrix(("a", "b"), [1.0, 2.0]), "domain data must be a 2-D matrix"),
    "domain_no_feature_column": (
        lambda path: ei.DomainMatrix(("a", "b"), np.empty((2, 0))),
        "domain matrix needs at least 1 feature column",
    ),
    "domain_identifier_count": (
        lambda path: ei.DomainMatrix(("a", "b", "c"), np.ones((2, 1))),
        "got 3 entity identifiers for 2 data rows",
    ),
    "distance_not_2d": (lambda path: ei.euclidean_distance_matrix(np.ones(3)), "expected a 2-D matrix of entity rows"),
    "distance_one_row": (
        lambda path: ei.euclidean_distance_matrix(np.ones((1, 3))),
        "distance matrix needs at least 2 rows",
    ),
    "returns_not_2d": (lambda path: ei.correlation_domain_matrix(["a", "b"], np.ones(4)), "returns must be a 2-D matrix"),
    "returns_identifier_count": (
        lambda path: ei.correlation_domain_matrix(["a"], np.ones((2, 4))),
        "got 1 entity identifiers for 2 return rows",
    ),
    "returns_infinite": (
        lambda path: ei.correlation_domain_matrix(["a", "b"], [[1.0, np.inf, 2.0], [1.0, 2.0, 3.0]]),
        "returns contain infinite values",
    ),
    "returns_one_entity_left": (
        # row a misses 4 of its 5 cells and is dropped
        lambda path: ei.correlation_domain_matrix(["a", "b"], [[1.0] + [np.nan] * 4, [1.0, 2.0, 3.0, 4.0, 5.0]]),
        "fewer than 2 entities remain after dropping rows with too many missing values",
    ),
    "embedding_vector_shape": (
        lambda path: ei.EmbeddingTable(2, {"a": [1.0, 2.0, 3.0]}),
        "token 'a' has a vector of shape (3,), expected (2,)",
    ),
    "embeddings_invalid_header": (_read(ei.load_embeddings, "2 0\na 1\n"), "{path}:1: invalid header '2 0'"),
    "merge_token_present": (_merge_over_present_token, "imputed token 'b' already present in table"),
    "domain_csv_empty": (_read(ei.load_domain_csv, "\n\n"), "{path}: empty CSV file"),
    "labels_csv_row_width": (_read(ei.load_labels_csv, "entity,label\na,x,y\n"), "{path}:2: expected 'entity,label'"),
    "labels_csv_empty_label": (_read(ei.load_labels_csv, "entity,label\na, \n"), "{path}:2: empty entity or label"),
    "labeled_not_2d": (lambda path: _labeled(np.ones(2), [0, 1]), "vectors must form a 2-D matrix"),
    "labeled_length": (lambda path: _labeled(np.ones((2, 1)), [0]), "labels and vectors must have matching length"),
    "labeled_empty": (
        lambda path: _labeled(np.empty((0, 1)), np.empty(0, dtype=int)),
        "at least one labeled vector is required",
    ),
    "labeled_code_range": (
        lambda path: _labeled(np.ones((2, 1)), [0, 2]),
        "label codes must index into label_names",
    ),
    "spec_one_label": (lambda path: ei.SyntheticTransferSpec(n_labels=1), "need at least 2 labels"),
    "knn_subset_range": (
        lambda path: ei.knn_accuracy(_labeled(np.eye(3), [0, 1, 0]), 1, [0, 3]),
        "subset index out of range",
    ),
    "power_iterate_known_1d": (
        lambda path: ei.power_iterate(_stochastic_2x2(), np.ones(2)),
        "known vectors must form a (p, s) matrix",
    ),
    "power_iterate_known_nan": (
        lambda path: ei.power_iterate(_stochastic_2x2(), [[np.nan]]),
        "known vectors contain non-finite values",
    ),
    "closed_form_known_1d": (
        lambda path: ei.closed_form_solve(_stochastic_2x2(), np.ones(2)),
        "known vectors must form a (p, s) matrix",
    ),
    "closed_form_known_nan": (
        lambda path: ei.closed_form_solve(_stochastic_2x2(), [[np.nan]]),
        "known vectors contain non-finite values",
    ),
    "build_graph_not_square": (lambda path: ei.build_graph(np.zeros((2, 3))), "distance matrix must be square"),
    "weight_matrix_not_square": (
        lambda path: ei.WeightMatrix(sparse.csr_matrix((2, 3))),
        "weight matrix must be square",
    ),
    "row_weights_target_2d": (
        lambda path: ei.solve_row_weights(np.ones((1, 2)), np.ones((2, 2))),
        "target vector must be 1-D",
    ),
    "row_weights_neighbors_1d": (
        lambda path: ei.solve_row_weights(np.ones(2), np.ones(2)),
        "neighbor matrix must be 2-D",
    ),
    "assemble_size_mismatch": (_size_mismatch, "graph has 3 vertices but domain matrix has 2 rows"),
    # operator.index takes True as 1; neither bool type is an integer here
    "impute_delta_bool": (
        lambda path: ei.impute_embeddings(_two_entities(), ei.EmbeddingTable(1, {"a": [1.0]}), delta=True),
        "minimum degree must be an integer >= 1, got True",
    ),
    "max_iter_bool": (lambda path: ei.ImputationConfig(max_iter=True), "max_iter must be an integer >= 1, got True"),
    "seed_numpy_bool": (
        lambda path: ei.ImputationConfig(seed=np.False_),
        f"seed must be an integer >= 0, got {np.False_!r}",
    ),
    "knn_k_bool": (
        lambda path: ei.knn_accuracy(_labeled(np.eye(3), [0, 1, 0]), True),
        "k must be an integer >= 1, got True",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_raises_its_one_line_message(name, tmp_path):
    call, message = CASES[name]
    path = tmp_path / "input"
    with pytest.raises(ei.ValidationError) as info:
        call(path)
    assert str(info.value) == message.format(path=path)
    assert "\n" not in str(info.value)
