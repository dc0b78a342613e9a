"""The package's public names."""

import groupnb
from groupnb import engine


def test_every_exported_name_resolves_once():
    names = groupnb.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(groupnb, name)] == []


def test_trainer_is_exported_from_the_engine():
    assert groupnb.train_bundles is engine.train_bundles
    assert groupnb.train_bundle is engine.train_bundle
