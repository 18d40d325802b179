"""Phishing-address detection over Ethereum-style transaction graphs.

Pipeline: ingest and label transaction records, build the address graph,
extract explicit or implicit behavioral features, train a weighted-loss
graph convolutional classifier, rank features with a random forest, and
emit evaluation reports. A synthetic generator makes the whole pipeline
testable at desk scale.
"""

__version__ = "0.1.0"
