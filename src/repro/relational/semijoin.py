"""Name-only stub: the semi-join filter bank is gone from the exchange layer.

``bench/trace.py`` still wraps ``ExchangeFilterBank.probe`` / ``.refresh``;
nothing in ``repro`` imports this module, and it goes with ROADMAP item 2's
benchmark PR.
"""


class ExchangeFilterBank:
    def probe(self):
        raise NotImplementedError

    def refresh(self):
        raise NotImplementedError
