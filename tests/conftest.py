"""Run order for the whole test session: the acceptance suite goes last.

Its session fixture trains the desk-scale models for about 15 minutes, so
every other test runs, and reports, before that starts.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
