"""Regenerate the catalog's shipped data from its builders:

    python -m walgebras.make_catalog

writes the JSON files of ``walgebras/data/`` and the generated module
``walgebras/_catalog_data.py`` (``catalog.regenerate_data``). The package
does not import this module, so its body runs once, as ``__main__``;
``python -m walgebras.catalog`` would run the catalog module a second time
beside the copy that ``import walgebras`` loaded.
"""

import os

from .catalog import CATALOG, DATA_DIR, DATA_MODULE, regenerate_data

if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    regenerate_data(DATA_DIR, DATA_MODULE)
    print("wrote %d algebra files to %s and %s"
          % (len(CATALOG), DATA_DIR, DATA_MODULE))
