"""Canonical edge bitmasks of every graph class on n <= 7 vertices.  Generated; do not edit.

``CLASSES[n][m]`` lists the isomorphism classes with n vertices and m edges, ascending, each as
the hex of its least image over all vertex relabelings; bit i is pair i of ``combinations(1..n, 2)``.
The orderly generator in ``tests/graph_builders.py`` wrote it, and the tests compare the two byte
for byte.  Regenerate it with ``PYTHONPATH=src python tests/graph_builders.py``.
"""

CLASSES = {
    1: (
        "0",
    ),
    2: (
        "0",
        "1",
    ),
    3: (
        "0",
        "1",
        "3",
        "7",
    ),
    4: (
        "0",
        "1",
        "3 c",
        "7 b d",
        "f 1e",
        "1f",
        "3f",
    ),
    5: (
        "0",
        "1",
        "3 14",
        "7 13 15 1c",
        "f 17 1d 36 3a b8",
        "1f 37 3b 3e b9 dc",
        "3f 7e b7 bb cf dd",
        "7f bf df fe",
        "ff 1ef",
        "1ff",
        "3ff",
    ),
    6: (
        "0",
        "1",
        "3 24",
        "7 23 25 2c 290",
        "f 27 2d 3c 66 6a 78 268 291",
        "1f 2f 3d 67 6b 6e 79 7a 269 278 293 296 "
        "2ac 2b4 398",
        "3f 6f 7b 7e ee f6 267 26b 279 28f 297 2ad "
        "2b3 2b5 2b6 2bc 2f8 399 39a 758 1711",
        "7f ef f7 fe 26f 27b 29f 2af 2b7 2bd 2ee 2f6 "
        "2f9 2fa 39b 39e 3ba 3bc 6d5 6f4 759 75c 16f0 1713",
        "ff 1fe 27f 2bf 2ef 2f7 2fb 2fe 39f 3bb 3bd 3be "
        "6cf 6d7 6f5 6fc 75b 75d 77c 7dc 16f1 1717 1735 173c",
        "1ff 2ff 3bf 3fe 6df 6ef 6f7 6fd 75f 77b 77d 7dd "
        "7de fdc 16f3 171f 1737 173d 173e 177a 1bbc",
        "3ff 6ff 77f 7df 7fe fdd 16ef 16f7 173f 1777 177b 177e "
        "19fe 1b9f 1bbd",
        "7ff fdf 16ff 177f 17fe 19ff 1bbf 1bfe 1fdd",
        "fff 17ff 1bff 1fdf 3dfe",
        "1fff 3dff",
        "3fff",
        "7fff",
    ),
    7: (
        "0",
        "1",
        "3 44",
        "7 43 45 4c 910",
        "f 47 4d 5c c6 ca d8 8c8 911 930",
        "1f 4f 5d 7c c7 cb ce d9 da f8 8c9 8d8 "
        "913 916 931 94c 954 970 b18 b28 9a20",
        "3f 5f 7d cf db de f9 fa 1ce 1d6 1f2 8c7 "
        "8cb 8d9 8f8 90f 917 933 936 94d 953 955 956 95c "
        "971 974 9d8 9f0 b19 b1a b29 b2a b38 19b0 1a98 1aa4 "
        "1aa8 9a11 9a21 9a22 a470",
        "7f df fb fe 1cf 1d7 1de 1f3 1f6 8cf 8db 8f9 "
        "91f 937 94f 957 95d 973 975 976 97c 9ce 9d6 9d9 "
        "9da 9f1 9f2 9f8 b1b b1e b2b b2e b39 b3a b5a b5c "
        "b6a b6c b78 f38 1995 19b1 19d4 19f0 1a99 1a9c 1aa5 1aa9 "
        "1aaa 1aac 1ab8 1bb0 99d0 9a13 9a23 9a26 9a31 9a62 9a64 9a70 "
        "9e30 a3e0 a471 a474 ad30",
        "ff 1df 1f7 1fe 3de 3ee 8df 8fb 93f 95f 977 97d "
        "9cf 9d7 9db 9de 9f3 9f6 9f9 9fa b1f b2f b3b b3e "
        "b5b b5d b5e b6b b6d b6e b79 b7a b7c bf8 f39 f3a "
        "198f 1997 19b3 19b5 19d5 19dc 19f1 19f4 1a9b 1a9d 1aa7 1aab "
        "1aad 1aae 1ab9 1abc 1adc 1aea 1aec 1af8 1b9c 1bac 1bb1 1bb2 "
        "1bb4 1bf0 1e3c 1eb4 1eb8 99d1 99f0 9a17 9a27 9a2e 9a33 9a55 "
        "9a5c 9a63 9a65 9a66 9a6c 9a71 9a72 9a74 9af0 9e31 9e32 a3e1 "
        "a3e2 a473 a475 a47c a4ea a4ec a4f8 a5ac a5b2 ab26 ab70 ad31 "
        "ad34",
        "1ff 3df 3ef 3fe 8ff 97f 9df 9f7 9fb 9fe b3f b5f "
        "b6f b7b b7d b7e bde bee bf9 bfa f3b f3e f7a f7c "
        "199f 19b7 19cf 19d7 19dd 19f3 19f5 19fc 1a9f 1aaf 1abb 1abd "
        "1adb 1add 1ae7 1aeb 1aed 1aee 1af9 1afc 1b9d 1b9e 1bad 1bae "
        "1bb3 1bb5 1bb6 1bbc 1bf1 1bf2 1bf4 1e3d 1e7c 1eb5 1eb6 1eb9 "
        "1eba 1ebc 3b9c 3bac 3db4 99d3 99f1 9a1f 9a2f 9a37 9a57 9a5d "
        "9a5e 9a67 9a6d 9a6e 9a73 9a75 9a76 9a7c 9ada 9ae6 9aea 9af1 "
        "9af2 9af8 9bf0 9e33 9e36 9e72 9e74 a3e3 a3e6 a3ec a43f a477 "
        "a47d a4eb a4ed a4ee a4f9 a4fa a5ad a5ae a5b3 a5b6 ab27 ab2d "
        "ab5c ab66 ab6c ab71 ab74 abe8 acf8 ad33 ad35 ad36 ad3c ad74 "
        "adac adb2 adb8 af38 bbb0 bdb0 be31 be32 be34 e633 5bc21",
        "3ff 7fe 9ff b7f bdf bef bfb bfe f3f f7b f7d f7e "
        "19bf 19df 19f7 19fd 1abf 1adf 1aef 1afb 1afd 1b9f 1baf 1bb7 "
        "1bbd 1bbe 1bde 1bee 1bf3 1bf5 1bf6 1bfc 1e3f 1e7d 1eb7 1ebb "
        "1ebd 1ebe 1ef6 1efa 1efc 1fbc 3b9d 3bad 3bbc 3bec 3db5 3dbc "
        "99cf 99d7 99f3 9a3f 9a5f 9a6f 9a77 9a7d 9a7e 9ad7 9adb 9ade "
        "9ae7 9aeb 9aee 9af3 9af6 9af9 9afa 9bf1 9bf2 9e37 9e3e 9e73 "
        "9e75 9e76 9e7c a3de a3e7 a3ed a3ee a47f a4ef a4fb a4fe a5af "
        "a5b7 a5be a5ee a5f6 a5fc ab1f ab2f ab5d ab67 ab6d ab73 ab75 "
        "ab76 ab7c abe6 abe9 abea abec abf8 acf9 ad37 ad3d ad73 ad75 "
        "ad76 ad7c adad adae adb3 adb6 adb9 adba adbc adf8 af39 af3a "
        "bbac bbb1 bbb4 bbf0 bdb1 bdb4 bdf0 be33 be35 be36 be3c be72 "
        "be74 beb4 beb8 e637 e673 e675 e67c e6b9 e6ba eeb8 1b56c 1b574 "
        "1bd29 1bd31 1bd32 5bc23",
        "7ff bff f7f ffe 19ff 1aff 1bbf 1bdf 1bef 1bf7 1bfd 1bfe "
        "1e7f 1ebf 1ef7 1efb 1efd 1efe 1fbd 1fbe 3b9f 3baf 3bbd 3bed "
        "3bfc 3db7 3dbd 3dfc 3fbc 99df 99f7 9a7f 9adf 9aef 9af7 9afb "
        "9afe 9bde 9bee 9bf3 9bf6 9e3f 9e77 9e7d 9e7e 9ef6 9efa a3df "
        "a3ef a3fe a4ff a5bf a5ef a5f7 a5fd a5fe ab3f ab5f ab6f ab77 "
        "ab7d abde abe7 abeb abed abee abf9 abfa acfb ad3f ad77 ad7d "
        "adaf adb7 adbb adbd adbe adee adf6 adf9 adfa adfc af3b af3e "
        "af7a af7c bb9d bbad bbb3 bbb5 bbbc bbec bbf1 bbf4 bdb3 bdb5 "
        "bdbc bdf1 bdf4 be37 be3d be3e be73 be75 be76 be7c beb5 beb6 "
        "beb9 beba bebc e63f e677 e67d e6b7 e6bb e6bd e6be e6f6 e6fa "
        "e6fc e7bc eeb9 eebc eef8 ef3c 1b3ea 1b56b 1b56d 1b56e 1b575 1b576 "
        "1bbe8 1bd2b 1bd33 1bd36 1bd39 1bd3a 1bd72 1bd74 1bd78 1d67c 1d6f8 5bbe0 "
        "5bc27 5bc63 5bc65 5c4fa",
        "fff 1bff 1eff 1fbf 1ffe 3bbf 3bdf 3bef 3bfd 3dbf 3df7 3dfd "
        "3fbd 3fbe 7fbc 99ff 9aff 9bdf 9bef 9bf7 9bfe 9e7f 9ef7 9efb "
        "9efe a3ff a5ff a7fe ab7f abdf abef abfb abfe acff ad7f adbf "
        "adef adf7 adfb adfd adfe af3f af7b af7d af7e bb9f bbaf bbb7 "
        "bbbd bbed bbf3 bbf5 bbfc bdb7 bdbd bdf3 bdf5 bdfc be3f be77 "
        "be7d be7e beb7 bebb bebd bebe bef6 befa befc bfbc e67f e6bf "
        "e6f7 e6fb e6fd e6fe e7bd e7be eeb7 eebb eebd eef9 eefc ef3d "
        "ef7c efbc 1b3de 1b3eb 1b3ee 1b56f 1b577 1b57e 1b5ee 1b5f6 1b5fa 1bbe9 "
        "1bbf8 1bd2f 1bd37 1bd3b 1bd3e 1bd6d 1bd73 1bd75 1bd76 1bd79 1bd7a 1bd7c "
        "1bdf8 1bf39 1bf3a 1d63f 1d67b 1d67d 1d6f9 1d6fa 1d77c 1def8 1df39 1df3a "
        "5bbe1 5bc2f 5bc67 5bc6d 5bc7c 5bcf8 5c47f 5c4fb 5c5f6 5cd73 5cd76",
        "1fff 3bff 3dff 3fbf 3ffe 7fbd 9bff 9eff 9ffe a7ff abff adff "
        "af7f affe bbbf bbdf bbef bbf7 bbfd bdbf bdf7 bdfd be7f bebf "
        "bef7 befb befd befe bfbd bfbe e6ff e7bf e7fe eebf eef7 eefb "
        "eefd ef3f ef7d efbd efbe ffbc 1b3df 1b3ef 1b3fe 1b57f 1b5ef 1b5f7 "
        "1b5fb 1b5fe 1bbeb 1bbf9 1bd3f 1bd6f 1bd77 1bd7b 1bd7d 1bd7e 1bdf6 1bdf9 "
        "1bdfa 1bf3b 1bf3e 1bf7a 1bf7c 1d67f 1d6fb 1d6fe 1d73f 1d77b 1d77d 1d77e "
        "1def9 1df3b 1df3e 1df7a 1df7c 1f77c 1f7bc 5bbe3 5bc3f 5bc6f 5bc7d 5bc7e "
        "5bce7 5bceb 5bcf9 5bcfa 5c4ff 5c5f7 5c5fe 5cd77 5cdf6 5cdfa 5cf3b 5cf7c "
        "5deb9",
        "3fff 7fbf 9fff afff bbff bdff beff bfbf bffe e7ff eeff ef7f "
        "efbf effe ffbd 1b3ff 1b5ff 1b7fe 1bbdf 1bbef 1bbfb 1bd7f 1bdef 1bdf7 "
        "1bdfb 1bdfe 1bf3f 1bf7b 1bf7d 1bf7e 1d6ff 1d77f 1d7fe 1defb 1df3f 1df7b "
        "1df7d 1df7e 1f73f 1f77b 1f77d 1f7bd 1f7be 1ffbc 3f77c 5bbe7 5bc7f 5bcef "
        "5bcfb 5bcfe 5bdf6 5c5ff 5c7fe 5cd7f 5cdf7 5cdfb 5cf3f 5cf7b 5cf7d 5cf7e "
        "5ddf5 5debb 5debd 5defc 6ef7c",
        "7fff bfff efff ffbf 1b7ff 1bbff 1bdff 1bf7f 1bffe 1d7ff 1deff 1df7f "
        "1dffe 1f77f 1f7bf 1f7fe 1ffbd 3f73f 3f77b 3f77d 5bbdf 5bbef 5bcff 5bdef "
        "5bdf7 5bdfe 5c7ff 5cdff 5cf7f 5cfbf 5cffe 5ddf7 5debf 5defb 5defd 5dfbd "
        "5dfbe 67fbd 6e7fe 6ef3f 6ef7d",
        "ffff 1bfff 1dfff 1f7ff 1ffbf 3f77f 3f7fe 5bbff 5bdff 5bffe 5cfff 5ddff "
        "5deff 5dfbf 5dffe 5ffbd 67fbf 6e7ff 6ef7f 6effe 6ffbd",
        "1ffff 3f7ff 5bfff 5dfff 5ffbf 67fff 6efff 6ffbf 7f77f 7f7fe",
        "3ffff 5ffff 6ffff 7f7ff f7fbf",
        "7ffff f7fff",
        "fffff",
        "1fffff",
    ),
}
