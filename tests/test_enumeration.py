import pytest

from usomat.enumeration import all_dags
from oracles import all_dags_by_orders


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 25), (4, 543), (5, 29281)])
def test_all_dags_yields_each_dag_once(n, count):
    """The layered generator writes each DAG once and finds the same set as the order filter."""
    rows = [g.rows for g in all_dags(n)]
    assert len(rows) == count
    assert len(set(rows)) == count
    assert set(rows) == {g.rows for g in all_dags_by_orders(n)}


def test_all_dags_needs_a_vertex():
    with pytest.raises(ValueError):
        next(all_dags(0))
