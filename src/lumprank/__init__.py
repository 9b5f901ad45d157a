"""PageRank by lumping all dangling nodes into a single state (numpy only).

The lumped chain is the Google matrix of a (k+1)-node graph whose one
dangling node is the lumped state, so the link matrix of either chain is a
:class:`HyperlinkMatrix` (:func:`permute_blocks` builds the lumped one), and
one product kernel and one operator builder serve both.  The root exports
the engine, the names in ``__all__`` of :mod:`lumprank.graph` and
:mod:`lumprank.lumping`.  The dense verification lab, numpy only as well, is
imported from its own modules, :mod:`lumprank.transforms` and
:mod:`lumprank.decomposition`."""

from .graph import *
from .lumping import *

__version__ = "0.1.0"

__all__ = [*graph.__all__, *lumping.__all__]
