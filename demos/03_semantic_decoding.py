"""Decode stimulus categories from higher-visual-cortex voxels.

HVC voxels carry a category code (plus a weak shape leak), so a small
tanh MLP classifies them near-perfectly while the same net trained on
LVC voxels stays near chance: shape alone under-determines category.
"""

import numpy as np

from shapesem.dataset import SyntheticConfig, simulate
from shapesem.semantic import (accuracy, classify_batch, semantic_features,
                               train_semantic)

ds, _ = simulate(SyntheticConfig(image_size=32, categories=8, n_train=160,
                                 n_test=24, test_trials=1, seed=1))
test = ds.split_records("test")

for roi_set in ("HVC", "LVC"):
    net = train_semantic(ds, roi_set=roi_set, seed=0)
    acc = accuracy(net, ds, test)
    print("%s classifier: held-out accuracy %.3f (chance %.3f)"
          % (roi_set, acc, 1.0 / ds.n_categories))

net = train_semantic(ds, roi_set="HVC", seed=0)
rec = test[0]
print("\nexample record: true category %d, predicted %d"
      % (rec.category_id, classify_batch(net, [rec], ds.layout)[0]))

# penultimate-layer features are what conditions the GAN; same-category
# records should sit closer together than cross-category ones
feats = [semantic_features(net, r, ds.layout) for r in test]
labels = [r.category_id for r in test]
same, cross = [], []
for i in range(len(test)):
    for j in range(i + 1, len(test)):
        d = float(np.linalg.norm(feats[i] - feats[j]))
        (same if labels[i] == labels[j] else cross).append(d)
print("mean feature distance: same category %.3f, cross category %.3f"
      % (np.mean(same), np.mean(cross)))
